package ligen

import (
	"math"
	"testing"

	"dsenergy/internal/xrand"
)

func TestGenLigandStructure(t *testing.T) {
	rng := xrand.New(42)
	for _, tc := range []struct{ atoms, frags int }{
		{31, 4}, {63, 8}, {74, 16}, {89, 20}, {2, 1}, {10, 10},
	} {
		l, err := GenLigand(rng.Split(), "t", tc.atoms, tc.frags)
		if err != nil {
			t.Fatalf("GenLigand(%d,%d): %v", tc.atoms, tc.frags, err)
		}
		if l.NumAtoms() != tc.atoms {
			t.Errorf("atoms: got %d want %d", l.NumAtoms(), tc.atoms)
		}
		if l.NumFragments() != tc.frags {
			t.Errorf("fragments(%d,%d): got %d want %d", tc.atoms, tc.frags, l.NumFragments(), tc.frags)
		}
		if got, want := len(l.Rotamers), tc.frags-1; got != want {
			t.Errorf("rotamers(%d,%d): got %d want %d (fragments-1)", tc.atoms, tc.frags, got, want)
		}
		if got, want := len(l.Bonds), tc.atoms-1; got != want {
			t.Errorf("bonds: got %d want %d", got, want)
		}
		// Fragments must partition the atom set.
		seen := make([]bool, tc.atoms)
		for _, frag := range l.Fragments {
			for _, a := range frag {
				if seen[a] {
					t.Fatalf("atom %d in two fragments", a)
				}
				seen[a] = true
			}
		}
		for a, s := range seen {
			if !s {
				t.Fatalf("atom %d in no fragment", a)
			}
		}
		// Every rotamer's moving set is the downstream chain suffix.
		for _, r := range l.Rotamers {
			if r.B != r.A+1 {
				t.Errorf("rotamer axis not a bond: %d-%d", r.A, r.B)
			}
			if len(r.Moving) == 0 || r.Moving[0] != r.B {
				t.Errorf("rotamer moving set does not start at pivot")
			}
		}
	}
}

func TestGenLigandBondLengths(t *testing.T) {
	l, err := GenLigand(xrand.New(7), "t", 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range l.Bonds {
		d := l.Atoms[b[0]].Pos.Sub(l.Atoms[b[1]].Pos).Norm()
		if !almostEq(d, bondLength, 1e-9) {
			t.Fatalf("bond %v length %g, want %g", b, d, bondLength)
		}
	}
}

func TestGenLigandRejectsBadInput(t *testing.T) {
	rng := xrand.New(1)
	if _, err := GenLigand(rng, "t", 1, 1); err == nil {
		t.Error("expected error for 1 atom")
	}
	if _, err := GenLigand(rng, "t", 10, 11); err == nil {
		t.Error("expected error for fragments > atoms")
	}
	if _, err := GenLigand(rng, "t", 10, 0); err == nil {
		t.Error("expected error for 0 fragments")
	}
}

func TestGenLigandDeterministic(t *testing.T) {
	a, _ := GenLigand(xrand.New(99), "t", 31, 4)
	b, _ := GenLigand(xrand.New(99), "t", 31, 4)
	for i := range a.Atoms {
		if a.Atoms[i] != b.Atoms[i] {
			t.Fatalf("atom %d differs between identically seeded generations", i)
		}
	}
}

func TestGenLibrary(t *testing.T) {
	lib, err := GenLibrary(xrand.New(5), 10, 31, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Ligands) != 10 {
		t.Fatalf("library size %d, want 10", len(lib.Ligands))
	}
	// Distinct ligands: first atoms of different molecules should differ.
	if lib.Ligands[0].Atoms[1].Pos == lib.Ligands[1].Atoms[1].Pos {
		t.Error("library ligands are identical; splits not independent")
	}
	if _, err := GenLibrary(xrand.New(5), 0, 31, 4); err == nil {
		t.Error("expected error for empty library")
	}
}

func TestRotatePointIsometry(t *testing.T) {
	// Rotation about an axis preserves distance to any anchor point on the
	// axis and maps the axis to itself.
	rng := xrand.New(11)
	for n := 0; n < 500; n++ {
		a := Vec3{rng.Float64(), rng.Float64(), rng.Float64()}
		u := Vec3{rng.Float64() - 0.5, rng.Float64() - 0.5, rng.Float64() - 0.5}.Normalize()
		p := Vec3{3 * rng.Float64(), 3 * rng.Float64(), 3 * rng.Float64()}
		theta := 2 * math.Pi * rng.Float64()
		q := rotatePoint(p, a, u, theta)
		if !almostEq(q.Sub(a).Norm(), p.Sub(a).Norm(), 1e-9) {
			t.Fatalf("rotation changed distance to anchor: %g vs %g",
				q.Sub(a).Norm(), p.Sub(a).Norm())
		}
		// The axial component is invariant.
		if !almostEq(q.Sub(a).Dot(u), p.Sub(a).Dot(u), 1e-9) {
			t.Fatalf("rotation changed axial component")
		}
	}
}

func TestRotatePointFullTurn(t *testing.T) {
	a := Vec3{1, 2, 3}
	u := Vec3{0, 0, 1}
	p := Vec3{4, 5, 6}
	q := rotatePoint(p, a, u, 2*math.Pi)
	for i := 0; i < 3; i++ {
		if !almostEq(q[i], p[i], 1e-9) {
			t.Fatalf("full turn moved the point: %v -> %v", p, q)
		}
	}
}

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) {
		t.Error("Add")
	}
	if b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Error("Sub")
	}
	if a.Dot(b) != 32 {
		t.Error("Dot")
	}
	if a.Cross(b) != (Vec3{-3, 6, -3}) {
		t.Error("Cross")
	}
	if !almostEq(Vec3{3, 4, 0}.Norm(), 5, 1e-12) {
		t.Error("Norm")
	}
	if n := (Vec3{0, 0, 0}).Normalize(); n != (Vec3{0, 0, 0}) {
		t.Error("Normalize of zero vector should be zero")
	}
}

func almostEq(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// NumAtoms returns the atom count (the paper's f_atoms feature).
func (l *Ligand) NumAtoms() int { return len(l.Atoms) }

// NumFragments returns the rigid fragment count (the paper's f_fragments
// feature; one more than the rotamer count).
func (l *Ligand) NumFragments() int { return len(l.Fragments) }
