package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewKey(t *testing.T) {
	k := NewKey(10, 20)
	if !k.Bound(0) || !k.Bound(1) || k.Bound(2) || k.Bound(3) {
		t.Fatalf("bound slots wrong: %+v", k)
	}
	if k.Data[0] != 10 || k.Data[1] != 20 {
		t.Fatalf("data wrong: %+v", k)
	}
}

func TestNewKeyTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized key")
		}
	}()
	NewKey(1, 2, 3, 4, 5)
}

func TestKeySet(t *testing.T) {
	k := AnyKey.Set(2, 99)
	if !k.Bound(2) || k.Data[2] != 99 {
		t.Fatalf("Set failed: %+v", k)
	}
	if k.Bound(0) || k.Bound(1) || k.Bound(3) {
		t.Fatalf("Set bound extra slots: %+v", k)
	}
}

func TestKeySetOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range slot")
		}
	}()
	AnyKey.Set(KeySize, 1)
}

func TestKeyCompatible(t *testing.T) {
	cases := []struct {
		a, b Key
		want bool
	}{
		{AnyKey, AnyKey, true},
		{AnyKey, NewKey(1), true},
		{NewKey(1), NewKey(1), true},
		{NewKey(1), NewKey(2), false},
		{NewKey(1), AnyKey.Set(1, 7), true}, // disjoint slots
		{NewKey(1, 2), NewKey(1), true},
		{NewKey(1, 2), NewKey(1, 3), false},
	}
	for i, c := range cases {
		if got := c.a.Compatible(c.b); got != c.want {
			t.Errorf("case %d: %s ~ %s = %v, want %v", i, c.a, c.b, got, c.want)
		}
		if got := c.b.Compatible(c.a); got != c.want {
			t.Errorf("case %d (sym): %s ~ %s = %v, want %v", i, c.b, c.a, got, c.want)
		}
	}
}

func TestKeyUnion(t *testing.T) {
	got := NewKey(1).Union(AnyKey.Set(1, 9))
	want := NewKey(1, 9)
	if got != want {
		t.Fatalf("union = %s, want %s", got, want)
	}
}

func TestKeyUnionIncompatiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKey(1).Union(NewKey(2))
}

func TestKeyString(t *testing.T) {
	if s := AnyKey.String(); s != "(∗)" {
		t.Errorf("AnyKey string = %q", s)
	}
	if s := NewKey(3).String(); s != "(3)" {
		t.Errorf("NewKey(3) = %q", s)
	}
	if s := AnyKey.Set(1, 5).String(); s != "(∗,5)" {
		t.Errorf("sparse key = %q", s)
	}
}

func TestKeyProject(t *testing.T) {
	k := NewKey(1, 2, 3)
	p := k.project(0b101)
	if p.Mask != 0b101 || p.Data[0] != 1 || p.Data[2] != 3 {
		t.Fatalf("project = %+v", p)
	}
	if p.Data[1] != 0 {
		t.Fatalf("projected-out slot should be zeroed: %+v", p)
	}
}

// randomKey generates a key with arbitrary mask and small values, giving a
// high collision rate so that compatibility is exercised both ways.
func randomKey(r *rand.Rand) Key {
	var k Key
	k.Mask = uint32(r.Intn(16))
	for i := 0; i < KeySize; i++ {
		if k.Bound(i) {
			k.Data[i] = Value(r.Intn(3))
		}
	}
	return k
}

type keyPair struct{ A, B Key }

func (keyPair) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(keyPair{randomKey(r), randomKey(r)})
}

// Property: compatibility is reflexive and symmetric.
func TestQuickKeyCompatibleSymmetric(t *testing.T) {
	f := func(p keyPair) bool {
		return p.A.Compatible(p.A) &&
			p.A.Compatible(p.B) == p.B.Compatible(p.A)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// subsetOf reports whether every slot bound in k is bound in o with the same
// value, i.e. k is at least as general as o.
func subsetOf(k, o Key) bool {
	return k.Mask&^o.Mask == 0 && modelCompatible(k, o)
}

// Property: Compatible and Union agree with the lifecycle model's
// slot-by-slot definitions (model_test.go).
func TestQuickKeyAlgebraMatchesModel(t *testing.T) {
	f := func(p keyPair) bool {
		if p.A.Compatible(p.B) != modelCompatible(p.A, p.B) {
			return false
		}
		return !p.A.Compatible(p.B) || p.A.Union(p.B) == modelUnion(p.A, p.B)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: subset-of is a partial order embedding — A ⊆ A∪B and B ⊆ A∪B
// whenever the union exists.
func TestQuickKeyUnionUpperBound(t *testing.T) {
	f := func(p keyPair) bool {
		if !p.A.Compatible(p.B) {
			return true
		}
		u := p.A.Union(p.B)
		return subsetOf(p.A, u) && subsetOf(p.B, u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: project always yields a subset of the original key.
func TestQuickKeyProjectSubset(t *testing.T) {
	f := func(p keyPair) bool {
		pr := p.A.project(p.B.Mask)
		return subsetOf(pr, p.A)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
