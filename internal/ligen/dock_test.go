package ligen

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dsenergy/internal/xrand"
)

func testPocket(t *testing.T) *Pocket {
	t.Helper()
	p, err := GenPocket(xrand.New(1234), 24, 12)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGenPocketValidation(t *testing.T) {
	if _, err := GenPocket(xrand.New(1), 2, 12); err == nil {
		t.Error("expected error for tiny grid")
	}
	if _, err := GenPocket(xrand.New(1), 24, -1); err == nil {
		t.Error("expected error for negative extent")
	}
}

func TestPocketSampleInterpolation(t *testing.T) {
	p := testPocket(t)
	// At an exact grid point the trilinear sample equals the stored value.
	i, j, k := 10, 7, 5
	pos := Vec3{
		-p.Extent + float64(i)*p.spacing,
		-p.Extent + float64(j)*p.spacing,
		-p.Extent + float64(k)*p.spacing,
	}
	want := p.Aff[(k*p.N+j)*p.N+i]
	if got := p.Affinity(pos); !almostEq(got, want, 1e-9) {
		t.Errorf("grid-point sample %g, want %g", got, want)
	}
}

func TestPocketSampleOutside(t *testing.T) {
	p := testPocket(t)
	if got := p.Affinity(Vec3{1000, 0, 0}); got != -50 {
		t.Errorf("outside sample %g, want penalty -50", got)
	}
}

func TestDockProducesFiniteRankedScore(t *testing.T) {
	p := testPocket(t)
	l, _ := GenLigand(xrand.New(2), "t", 31, 4)
	r, err := Dock(l, p, TestParams(), xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(r.Score, 0) || math.IsNaN(r.Score) {
		t.Fatalf("dock score not finite: %g", r.Score)
	}
	if len(r.BestPose.Coords) != l.NumAtoms() {
		t.Fatalf("best pose has %d atoms, ligand %d", len(r.BestPose.Coords), l.NumAtoms())
	}
	if r.PosesKept != TestParams().MaxNumPoses {
		t.Errorf("poses kept %d, want clipped to %d", r.PosesKept, TestParams().MaxNumPoses)
	}
}

func TestDockKeepsLigandNearPocket(t *testing.T) {
	p := testPocket(t)
	l, _ := GenLigand(xrand.New(4), "t", 20, 3)
	r, err := Dock(l, p, TestParams(), xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	var c Vec3
	for _, pos := range r.BestPose.Coords {
		c = c.Add(pos)
	}
	c = c.Scale(1 / float64(len(r.BestPose.Coords)))
	if d := c.Sub(p.Center).Norm(); d > p.Extent {
		t.Errorf("docked centroid %.2f Å from pocket center, beyond extent %.2f", d, p.Extent)
	}
}

func TestDockDeterministic(t *testing.T) {
	p := testPocket(t)
	l, _ := GenLigand(xrand.New(6), "t", 31, 4)
	a, err := Dock(l, p, TestParams(), xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Dock(l, p, TestParams(), xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score {
		t.Errorf("identically seeded docks differ: %g vs %g", a.Score, b.Score)
	}
}

func TestDockRejectsBadParams(t *testing.T) {
	p := testPocket(t)
	l, _ := GenLigand(xrand.New(8), "t", 10, 2)
	if _, err := Dock(l, p, Params{}, xrand.New(1)); err == nil {
		t.Error("expected error for zero params")
	}
}

func TestOptimizeNeverWorsensQuickScore(t *testing.T) {
	p := testPocket(t)
	l, _ := GenLigand(xrand.New(9), "t", 31, 4)
	rng := xrand.New(10)
	pose := align(initializePose(l, rng), p)
	for _, rot := range l.Rotamers {
		before := quickEvaluate(pose.Coords, rot.Moving, p)
		pose = optimize(pose, rot, p, 8)
		after := quickEvaluate(pose.Coords, rot.Moving, p)
		if after < before-1e-9 {
			t.Fatalf("optimize worsened the moving-set score: %g -> %g", before, after)
		}
	}
}

func TestOptimizePreservesRigidFragment(t *testing.T) {
	// Atoms upstream of the rotamer must not move.
	p := testPocket(t)
	l, _ := GenLigand(xrand.New(11), "t", 20, 4)
	pose := align(initializePose(l, xrand.New(12)), p)
	rot := l.Rotamers[1]
	before := clonePose(pose)
	pose = optimize(pose, rot, p, 8)
	for i := 0; i < rot.B; i++ {
		if pose.Coords[i] != before.Coords[i] {
			t.Fatalf("upstream atom %d moved during fragment optimization", i)
		}
	}
}

func TestOptimizePreservesBondGeometry(t *testing.T) {
	// Rotamer rotation is rigid for the moving set: pairwise distances
	// within the moving set are preserved.
	p := testPocket(t)
	l, _ := GenLigand(xrand.New(13), "t", 24, 3)
	pose := align(initializePose(l, xrand.New(14)), p)
	rot := l.Rotamers[0]
	before := clonePose(pose)
	pose = optimize(pose, rot, p, 16)
	m := rot.Moving
	for a := 0; a < len(m)-1; a++ {
		d0 := before.Coords[m[a]].Sub(before.Coords[m[a+1]]).Norm()
		d1 := pose.Coords[m[a]].Sub(pose.Coords[m[a+1]]).Norm()
		if !almostEq(d0, d1, 1e-9) {
			t.Fatalf("moving-set distance changed: %g -> %g", d0, d1)
		}
	}
}

func TestClashPenaltyDetectsOverlap(t *testing.T) {
	l, _ := GenLigand(xrand.New(15), "t", 5, 1)
	coords := make([]Vec3, 5)
	// All atoms stacked at the origin: massive clash.
	if pen := clashPenalty(coords, l); pen <= 0 {
		t.Errorf("stacked atoms should clash, penalty %g", pen)
	}
	// Spread far apart: no clash.
	for i := range coords {
		coords[i] = Vec3{float64(i) * 10, 0, 0}
	}
	if pen := clashPenalty(coords, l); pen != 0 {
		t.Errorf("spread atoms should not clash, penalty %g", pen)
	}
}

func TestScreenDeterministicAcrossWorkers(t *testing.T) {
	p := testPocket(t)
	lib, _ := GenLibrary(xrand.New(16), 8, 20, 3)
	r1, err := Screen(lib, p, TestParams(), 1, 77)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Screen(lib, p, TestParams(), 4, 77)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r4) {
		t.Fatalf("result lengths differ: %d vs %d", len(r1), len(r4))
	}
	for i := range r1 {
		if r1[i] != r4[i] {
			t.Fatalf("rank %d differs between 1 and 4 workers: %+v vs %+v", i, r1[i], r4[i])
		}
	}
}

func TestScreenRankingSorted(t *testing.T) {
	p := testPocket(t)
	lib, _ := GenLibrary(xrand.New(17), 6, 25, 4)
	res, err := Screen(lib, p, TestParams(), 2, 88)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatalf("ranking not descending at %d: %g > %g", i, res[i].Score, res[i-1].Score)
		}
	}
}

func TestScreenEmptyLibrary(t *testing.T) {
	p := testPocket(t)
	if _, err := Screen(&Library{}, p, TestParams(), 1, 1); err == nil {
		t.Error("expected error for empty library")
	}
}

func TestScreenReportsFailingLigand(t *testing.T) {
	p := testPocket(t)
	lib, err := GenLibrary(xrand.New(18), 6, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	lib.Ligands[3] = &Ligand{Name: "hollow"}
	for _, workers := range []int{1, 4} {
		res, err := Screen(lib, p, TestParams(), workers, 5)
		if err == nil {
			t.Fatalf("workers=%d: screening an atom-less ligand succeeded with %d results", workers, len(res))
		}
		if !strings.Contains(err.Error(), "ligand 3 (hollow)") {
			t.Errorf("workers=%d: error %q does not name the atom-less ligand", workers, err)
		}
	}
}

// BondLengthStats verifies that a pose preserved the molecule's bond
// geometry (rigid-body and rotamer moves must not stretch bonds): it returns
// the min and max bonded distance across the pose.
func BondLengthStats(l *Ligand, coords []Vec3) (min, max float64, err error) {
	if len(coords) != len(l.Atoms) {
		return 0, 0, fmt.Errorf("ligen: pose has %d atoms, ligand %d", len(coords), len(l.Atoms))
	}
	if len(l.Bonds) == 0 {
		return 0, 0, fmt.Errorf("ligen: ligand has no bonds")
	}
	min, max = math.Inf(1), math.Inf(-1)
	for _, b := range l.Bonds {
		d := coords[b[0]].Sub(coords[b[1]]).Norm()
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return min, max, nil
}

func TestBondLengthStatsDetectsStretch(t *testing.T) {
	l, _ := GenLigand(xrand.New(8), "t", 10, 2)
	coords := make([]Vec3, 10)
	for i := range coords {
		coords[i] = l.Atoms[i].Pos
	}
	min, max, err := BondLengthStats(l, coords)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(min, bondLength, 1e-9) || !almostEq(max, bondLength, 1e-9) {
		t.Errorf("pristine pose bond range [%g, %g], want all %g", min, max, bondLength)
	}
	coords[9] = coords[9].Add(Vec3{10, 0, 0})
	_, max2, _ := BondLengthStats(l, coords)
	if max2 <= max {
		t.Error("stretched bond not detected")
	}
	if _, _, err := BondLengthStats(l, coords[:3]); err == nil {
		t.Error("expected error for wrong coordinate count")
	}
}

func TestDockedPosePreservesBondGeometry(t *testing.T) {
	// End-to-end: the docking engine must never distort the molecule.
	pocket := testPocket(t)
	l, _ := GenLigand(xrand.New(10), "t", 24, 4)
	r, err := Dock(l, pocket, TestParams(), xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	min, max, err := BondLengthStats(l, r.BestPose.Coords)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(min, bondLength, 1e-6) || !almostEq(max, bondLength, 1e-6) {
		t.Errorf("docking distorted bonds: range [%g, %g]", min, max)
	}
}
