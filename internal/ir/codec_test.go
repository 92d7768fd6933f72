package ir

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// filledModule builds a module in which every field of every IR type holds
// a distinct non-zero value, found by reflection: a field added to any of
// them later is filled too, so a codec that forgets to encode it fails the
// round trip below instead of letting a stale cache object hit.
func filledModule(t testing.TB) *Module {
	var n int64
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			n++
			x := n * 1000003 // multi-byte varints
			if n%2 == 0 {
				x = -x
			}
			v.SetInt(x)
		case reflect.String:
			n++
			v.SetString(fmt.Sprintf("s%d", n))
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Pointer:
			p := reflect.New(v.Type().Elem())
			fill(p.Elem(), path)
			v.Set(p)
		case reflect.Slice:
			s := reflect.MakeSlice(v.Type(), 2, 2)
			for i := 0; i < s.Len(); i++ {
				fill(s.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
			v.Set(s)
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				if !f.IsExported() {
					t.Fatalf("%s.%s: unexported field; teach the codec and this filler about it", path, f.Name)
				}
				fill(v.Field(i), path+"."+f.Name)
			}
		default:
			t.Fatalf("%s: kind %s is not filled; teach the codec and this filler about it", path, v.Kind())
		}
	}
	m := &Module{}
	fill(reflect.ValueOf(m).Elem(), "Module")
	return m
}

func TestModuleCodecCoversEveryField(t *testing.T) {
	m := filledModule(t)
	enc := m.AppendBinary(nil)
	got, rest, err := DecodeModule(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip lost a field:\nwant %s\ngot  %s", m, got)
	}
	if again := got.AppendBinary(nil); !bytes.Equal(again, enc) {
		t.Fatal("decoded module re-encodes differently")
	}
}

// TestModuleCodecSharesStructs: struct layouts are interned by content, so
// a module whose instructions point at equal layouts through different
// pointers encodes like one that shares a single pointer, and decoding
// restores the sharing.
func TestModuleCodecSharesStructs(t *testing.T) {
	build := func(share bool) *Module {
		m := sampleModule("m")
		st := m.Structs[0]
		other := st
		if !share {
			other = &StructType{Name: st.Name, Fields: append([]Field(nil), st.Fields...)}
		}
		m.Funcs[0].Blocks[0].Instrs = append([]Instr{
			{Op: OpAllocHeap, Dst: 0, Struct: st, Args: []int{}},
			{Op: OpFieldAddr, Dst: 0, X: 0, Struct: other, Field: 1},
		}, m.Funcs[0].Blocks[0].Instrs...)
		return m
	}
	shared, copied := build(true).AppendBinary(nil), build(false).AppendBinary(nil)
	if !bytes.Equal(shared, copied) {
		t.Fatal("encoding depends on struct pointer identity")
	}
	if build(true).ContentSum(nil, nil) != build(false).ContentSum(nil, nil) {
		t.Fatal("content sum depends on struct pointer identity")
	}
	got, _, err := DecodeModule(copied)
	if err != nil {
		t.Fatal(err)
	}
	in := got.Funcs[0].Blocks[0].Instrs
	if got.Structs[0] != in[0].Struct || in[0].Struct != in[1].Struct {
		t.Fatal("decoded struct references do not share one layout")
	}
	if in[0].Args != nil {
		t.Fatal("empty Args decoded as non-nil")
	}
}

func FuzzModuleCodec(f *testing.F) {
	linked, err := Link("prog", sampleModule("a"), sampleModule("b"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(linked.AppendBinary(nil))
	f.Add(filledModule(f).AppendBinary(nil))
	f.Add((&Module{}).AppendBinary(nil))
	f.Add([]byte("not a module"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every count is checked against the bytes left, so decoding
		// allocates at most a fixed multiple of the input's length.
		// TotalAlloc is process-wide, so a reading over the bound is
		// retried before it fails: another goroutine's allocation
		// cannot land in every window.
		limit := uint64(64*len(data) + 4096)
		var m *Module
		var rest []byte
		var err error
		for try := 0; ; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, rest, err = DecodeModule(data)
			runtime.ReadMemStats(&after)
			alloc := after.TotalAlloc - before.TotalAlloc
			if alloc <= limit {
				break
			}
			if try == 2 {
				t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
			}
		}
		if err != nil {
			return
		}
		used := data[:len(data)-len(rest)]
		got := m.AppendBinary(nil)
		if !bytes.Equal(got, used) {
			t.Fatalf("accepted input re-encodes differently:\n in  %x\n out %x", used, got)
		}
		// The content sum is a function of content alone: the module
		// decoded again from its own encoding sums the same.
		again, _, err := DecodeModule(got)
		if err != nil {
			t.Fatalf("re-encoded module does not decode: %v", err)
		}
		if m.ContentSum(nil, rest) != again.ContentSum(nil, rest) {
			t.Fatal("re-decoded module's content sum differs")
		}
		for i := range used {
			if _, _, err := DecodeModule(used[:i]); err == nil {
				t.Fatalf("strict prefix of %d/%d bytes accepted", i, len(used))
			}
		}
	})
}
