// Package ligen implements a molecular docking and scoring engine following
// the structure of LiGen, the virtual-screening component of the EXSCALATE
// drug-discovery platform the paper characterizes (Algorithm 2):
//
//	for i in 0..num_restart:
//	    pose = initialize_pose(ligand, i)
//	    pose = align(pose, target)
//	    for n in 0..num_iterations:
//	        for fragment in pose.fragments:
//	            pose = optimize(pose, fragment, target)
//	    pose = evaluate(pose, target)
//	poses = clip(sort(poses), max_num_poses)
//	for pose in poses: score = compute_score(pose, target)
//	return max(scores)
//
// Ligands are synthetic molecules generated from the three parameters the
// paper's domain-specific model uses as features — number of ligands, atoms
// per ligand and fragments per ligand — with rotatable bonds (rotamers)
// splitting each ligand into rigid fragments exactly as LiGen defines them.
// The package provides both a reference CPU implementation (used for
// correctness tests and the examples) and GPU kernel profiles that drive the
// simulated devices for the energy experiments.
package ligen

import (
	"fmt"
	"math"

	"dsenergy/internal/xrand"
)

// Vec3 is a 3-D coordinate in ångström.
type Vec3 [3]float64

// Add returns v + o.
func (v Vec3) Add(o Vec3) Vec3 { return Vec3{v[0] + o[0], v[1] + o[1], v[2] + o[2]} }

// Sub returns v - o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v[0] - o[0], v[1] - o[1], v[2] - o[2]} }

// Scale returns k·v.
func (v Vec3) Scale(k float64) Vec3 { return Vec3{k * v[0], k * v[1], k * v[2]} }

// Dot returns the inner product.
func (v Vec3) Dot(o Vec3) float64 { return v[0]*o[0] + v[1]*o[1] + v[2]*o[2] }

// Cross returns the vector product.
func (v Vec3) Cross(o Vec3) Vec3 {
	return Vec3{
		v[1]*o[2] - v[2]*o[1],
		v[2]*o[0] - v[0]*o[2],
		v[0]*o[1] - v[1]*o[0],
	}
}

// Norm returns the Euclidean length.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Normalize returns v/|v| (the zero vector is returned unchanged).
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Atom is one ligand atom: its position in the ligand frame plus the charge
// and van-der-Waals radius entering the scoring function.
type Atom struct {
	Pos    Vec3
	Charge float64
	Radius float64
}

// Rotamer is a rotatable bond: rotating the Moving atom set around the
// A→B axis changes the ligand's geometry without altering its chemistry —
// LiGen's definition of a fragment split.
type Rotamer struct {
	A, B   int   // atom indices defining the rotation axis
	Moving []int // indices of atoms displaced by the rotation
}

// Ligand is a small molecule: atoms, the bond chain, and the rotamers that
// partition the atoms into rigid fragments.
type Ligand struct {
	Name      string
	Atoms     []Atom
	Bonds     [][2]int
	Rotamers  []Rotamer
	Fragments [][]int // atom indices per rigid fragment
}

// NumAtoms returns the atom count (the paper's f_atoms feature).
func (l *Ligand) NumAtoms() int { return len(l.Atoms) }

// NumFragments returns the rigid fragment count (the paper's f_fragments
// feature; one more than the rotamer count).
func (l *Ligand) NumFragments() int { return len(l.Fragments) }

const bondLength = 1.5 // ångström, a typical C-C bond

// GenLigand synthesizes a ligand with the requested number of atoms and
// fragments: a self-avoiding heavy-atom chain with fragment boundaries at
// evenly spaced rotatable bonds. Atoms carry alternating partial charges and
// carbon-like radii. Generation is deterministic in rng.
func GenLigand(rng *xrand.Rand, name string, atoms, fragments int) (*Ligand, error) {
	if atoms < 2 {
		return nil, fmt.Errorf("ligen: ligand needs at least 2 atoms, got %d", atoms)
	}
	if fragments < 1 || fragments > atoms {
		return nil, fmt.Errorf("ligen: fragments must be in [1,%d], got %d", atoms, fragments)
	}
	l := &Ligand{Name: name, Atoms: make([]Atom, atoms)}

	// Grow a chain with random but forward-biased bond directions so the
	// molecule is extended rather than collapsed.
	dir := Vec3{1, 0, 0}
	pos := Vec3{}
	for i := 0; i < atoms; i++ {
		l.Atoms[i] = Atom{
			Pos:    pos,
			Charge: 0.2 * math.Pow(-1, float64(i)) * (0.5 + rng.Float64()),
			Radius: 1.5 + 0.2*rng.Float64(),
		}
		jitter := Vec3{rng.Float64() - 0.5, rng.Float64() - 0.5, rng.Float64() - 0.5}
		dir = dir.Add(jitter.Scale(0.9)).Normalize()
		pos = pos.Add(dir.Scale(bondLength))
		if i > 0 {
			l.Bonds = append(l.Bonds, [2]int{i - 1, i})
		}
	}

	// Fragment boundaries: fragments-1 rotatable bonds at (approximately)
	// even chain positions; every atom downstream of the bond moves.
	bounds := make([]int, 0, fragments+1)
	for f := 0; f <= fragments; f++ {
		bounds = append(bounds, f*atoms/fragments)
	}
	for f := 0; f < fragments; f++ {
		lo, hi := bounds[f], bounds[f+1]
		if hi <= lo { // degenerate split when fragments ≈ atoms
			hi = lo + 1
		}
		frag := make([]int, 0, hi-lo)
		for i := lo; i < hi && i < atoms; i++ {
			frag = append(frag, i)
		}
		if len(frag) > 0 {
			l.Fragments = append(l.Fragments, frag)
		}
	}
	for f := 1; f < len(l.Fragments); f++ {
		pivot := l.Fragments[f][0]
		if pivot == 0 {
			continue
		}
		moving := make([]int, 0, atoms-pivot)
		for i := pivot; i < atoms; i++ {
			moving = append(moving, i)
		}
		l.Rotamers = append(l.Rotamers, Rotamer{A: pivot - 1, B: pivot, Moving: moving})
	}
	return l, nil
}

// GenLigandBranched synthesizes a ligand with side chains: a backbone chain
// carrying the rotatable bonds plus single-atom branches attached along it
// (branchFrac of the atoms become branches). Branch atoms belong to their
// backbone atom's fragment and move with it under rotamer rotations, so the
// rigid-fragment invariants hold exactly as for chain ligands.
func GenLigandBranched(rng *xrand.Rand, name string, atoms, fragments int, branchFrac float64) (*Ligand, error) {
	if branchFrac < 0 || branchFrac >= 1 {
		return nil, fmt.Errorf("ligen: branchFrac must be in [0,1), got %g", branchFrac)
	}
	branches := int(branchFrac * float64(atoms))
	backbone := atoms - branches
	if backbone < 2 || fragments > backbone {
		return nil, fmt.Errorf("ligen: %d atoms with branchFrac %g leaves a %d-atom backbone (need >= 2 and >= fragments=%d)",
			atoms, branchFrac, backbone, fragments)
	}
	// Generate the backbone with the chain generator, then graft branches.
	l, err := GenLigand(rng, name, backbone, fragments)
	if err != nil {
		return nil, err
	}
	// fragOf maps backbone atom -> fragment index.
	fragOf := make([]int, backbone)
	for fi, frag := range l.Fragments {
		for _, a := range frag {
			fragOf[a] = fi
		}
	}
	for b := 0; b < branches; b++ {
		host := 1 + (b*(backbone-2))/max(branches, 1) // spread along the chain
		dir := Vec3{rng.Float64() - 0.5, rng.Float64() - 0.5, rng.Float64() + 0.5}.Normalize()
		idx := len(l.Atoms)
		l.Atoms = append(l.Atoms, Atom{
			Pos:    l.Atoms[host].Pos.Add(dir.Scale(bondLength)),
			Charge: 0.15 * math.Pow(-1, float64(b)) * (0.5 + rng.Float64()),
			Radius: 1.4 + 0.2*rng.Float64(),
		})
		l.Bonds = append(l.Bonds, [2]int{host, idx})
		fi := fragOf[host]
		l.Fragments[fi] = append(l.Fragments[fi], idx)
		// The branch moves with every rotamer that moves its host.
		for ri := range l.Rotamers {
			if host >= l.Rotamers[ri].B {
				l.Rotamers[ri].Moving = append(l.Rotamers[ri].Moving, idx)
			}
		}
	}
	return l, nil
}

// Library is a chemical library: the set of ligands of one virtual-screening
// campaign.
type Library struct {
	Ligands []*Ligand
}

// GenLibrary synthesizes n ligands with the given atoms/fragments structure.
// Each ligand draws from an independent split of rng, so the library content
// does not depend on generation order or concurrency.
func GenLibrary(rng *xrand.Rand, n, atoms, fragments int) (*Library, error) {
	if n < 1 {
		return nil, fmt.Errorf("ligen: library needs at least 1 ligand, got %d", n)
	}
	lib := &Library{Ligands: make([]*Ligand, n)}
	for i := 0; i < n; i++ {
		lr := rng.Split()
		l, err := GenLigand(lr, fmt.Sprintf("lig-%06d", i), atoms, fragments)
		if err != nil {
			return nil, err
		}
		lib.Ligands[i] = l
	}
	return lib, nil
}

// rotatePoint rotates p around the axis through a with unit direction u by
// angle theta (Rodrigues' formula) — the geometric core of LiGen's fragment
// optimization.
func rotatePoint(p, a, u Vec3, theta float64) Vec3 {
	v := p.Sub(a)
	cosT, sinT := math.Cos(theta), math.Sin(theta)
	term1 := v.Scale(cosT)
	term2 := u.Cross(v).Scale(sinT)
	term3 := u.Scale(u.Dot(v) * (1 - cosT))
	return a.Add(term1).Add(term2).Add(term3)
}
