package ir

// Struct finds a struct type by name, or nil.
func (m *Module) Struct(name string) *StructType {
	for _, s := range m.Structs {
		if s.Name == name {
			return s
		}
	}
	return nil
}
