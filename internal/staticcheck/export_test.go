package staticcheck

// WithMaxConfigs returns o with the per-block configuration budget set to n.
func WithMaxConfigs(o Options, n int) Options {
	o.maxConfigs = n
	return o
}

// Result finds the result for a named assertion, or nil.
func (r *Report) Result(name string) *Result {
	for _, res := range r.Results {
		if res.Automaton.Name == name {
			return res
		}
	}
	return nil
}
