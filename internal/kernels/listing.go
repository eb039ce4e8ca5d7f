package kernels

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Static feature extraction from code: the general-purpose model's
// prediction phase "extracts static code features from a new input code"
// (§4.1, after Fan et al., who analyze PTX). This file implements that
// analyzer for a small PTX-like kernel listing format:
//
//	// comments and blank lines are ignored
//	loop 89            // multiplies the counts of the enclosed block
//	    fadd           // one floating point addition
//	    fmul 3         // three floating point multiplications
//	    ld.global 2    // two global memory loads
//	end
//	sin                // one special-function evaluation
//
// Counts are per work item and must be finite. Nested loops multiply; a
// product or a running class total that overflows to infinity is an error.
// The recognized opcodes map exactly onto the ten Table 1 feature classes.

// opcodeClass maps listing opcodes to InstructionMix fields.
var opcodeClass = map[string]func(*InstructionMix, float64){
	"iadd":      func(m *InstructionMix, n float64) { m.IntAdd += n },
	"isub":      func(m *InstructionMix, n float64) { m.IntAdd += n },
	"imul":      func(m *InstructionMix, n float64) { m.IntMul += n },
	"idiv":      func(m *InstructionMix, n float64) { m.IntDiv += n },
	"and":       func(m *InstructionMix, n float64) { m.IntBitwise += n },
	"or":        func(m *InstructionMix, n float64) { m.IntBitwise += n },
	"xor":       func(m *InstructionMix, n float64) { m.IntBitwise += n },
	"shl":       func(m *InstructionMix, n float64) { m.IntBitwise += n },
	"shr":       func(m *InstructionMix, n float64) { m.IntBitwise += n },
	"fadd":      func(m *InstructionMix, n float64) { m.FloatAdd += n },
	"fsub":      func(m *InstructionMix, n float64) { m.FloatAdd += n },
	"fmul":      func(m *InstructionMix, n float64) { m.FloatMul += n },
	"fma":       func(m *InstructionMix, n float64) { m.FloatAdd += n; m.FloatMul += n },
	"fdiv":      func(m *InstructionMix, n float64) { m.FloatDiv += n },
	"sin":       func(m *InstructionMix, n float64) { m.SpecialFn += n },
	"cos":       func(m *InstructionMix, n float64) { m.SpecialFn += n },
	"sqrt":      func(m *InstructionMix, n float64) { m.SpecialFn += n },
	"exp":       func(m *InstructionMix, n float64) { m.SpecialFn += n },
	"log":       func(m *InstructionMix, n float64) { m.SpecialFn += n },
	"rcp":       func(m *InstructionMix, n float64) { m.SpecialFn += n },
	"ld.global": func(m *InstructionMix, n float64) { m.GlobalAcc += n },
	"st.global": func(m *InstructionMix, n float64) { m.GlobalAcc += n },
	"ld.shared": func(m *InstructionMix, n float64) { m.LocalAcc += n },
	"st.shared": func(m *InstructionMix, n float64) { m.LocalAcc += n },
}

// ParseListing extracts the per-work-item instruction mix from a kernel
// listing — the static analysis step of the general-purpose model's
// prediction phase.
func ParseListing(r io.Reader) (InstructionMix, error) {
	var mix InstructionMix
	multipliers := []float64{1}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.Index(text, "//"); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		op := strings.ToLower(fields[0])
		switch op {
		case "loop":
			if len(fields) != 2 {
				return InstructionMix{}, fmt.Errorf("kernels: line %d: loop needs a trip count", line)
			}
			trips, err := strconv.ParseFloat(fields[1], 64)
			outer := multipliers[len(multipliers)-1] * trips
			if err != nil || !(trips > 0) || math.IsInf(outer, 1) {
				return InstructionMix{}, fmt.Errorf("kernels: line %d: bad trip count %q", line, fields[1])
			}
			multipliers = append(multipliers, outer)
		case "end":
			if len(multipliers) == 1 {
				return InstructionMix{}, fmt.Errorf("kernels: line %d: end without loop", line)
			}
			multipliers = multipliers[:len(multipliers)-1]
		default:
			apply, ok := opcodeClass[op]
			if !ok {
				return InstructionMix{}, fmt.Errorf("kernels: line %d: unknown opcode %q", line, op)
			}
			count := 1.0
			if len(fields) > 1 {
				v, err := strconv.ParseFloat(fields[1], 64)
				if err != nil || !(v >= 0) || math.IsInf(v, 1) {
					return InstructionMix{}, fmt.Errorf("kernels: line %d: bad count %q", line, fields[1])
				}
				count = v
			}
			if len(fields) > 2 {
				return InstructionMix{}, fmt.Errorf("kernels: line %d: trailing tokens", line)
			}
			apply(&mix, count*multipliers[len(multipliers)-1])
			if !mix.finite() {
				return InstructionMix{}, fmt.Errorf("kernels: line %d: count overflows the %s class", line, op)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return InstructionMix{}, err
	}
	if len(multipliers) != 1 {
		return InstructionMix{}, fmt.Errorf("kernels: %d unclosed loop(s)", len(multipliers)-1)
	}
	if mix.Total() == 0 {
		return InstructionMix{}, fmt.Errorf("kernels: listing contains no instructions")
	}
	return mix, nil
}
