package fuzzy

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file reads a complete fuzzy inference system from plain text — the
// equivalent of the Matlab Fuzzy Logic Toolbox's .fis files the paper's
// authors would have used. The format is line oriented:
//
//	# comment
//	OUTPUT income 40000 160000
//	TERM income low  trap -inf -inf 30 60
//	TERM income med  tri 30 60 90
//	TERM income high gauss 100 15
//	INPUT valuation 0 10
//	TERM valuation low ...
//	RULE IF valuation IS low THEN income IS low WEIGHT 0.5
//
// Shapes: tri a b c | trap a b c d | gauss mean sigma | singleton x |
// sigmoid center slope | bell width slope center.
// "-inf"/"inf" are legal trapezoid feet (open shoulders).

// ParseFIS reads a system in the text format.
func ParseFIS(r io.Reader) (*System, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("fuzzy: read fis: %w", err)
	}
	var output *Variable
	vars := make(map[string]*Variable)
	var inputOrder []string
	var pendingRules []string

	for lineNo, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		kw := strings.ToUpper(fields[0])
		fail := func(format string, args ...any) error {
			return fmt.Errorf("fuzzy: fis line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		switch kw {
		case "OUTPUT", "INPUT":
			if len(fields) != 4 {
				return nil, fail("%s needs name lo hi", kw)
			}
			lo, err1 := parseNum(fields[2])
			hi, err2 := parseNum(fields[3])
			if err1 != nil || err2 != nil {
				return nil, fail("bad bounds %q %q", fields[2], fields[3])
			}
			v, err := NewVariable(fields[1], lo, hi)
			if err != nil {
				return nil, fail("%v", err)
			}
			if _, dup := vars[v.Name]; dup {
				return nil, fail("duplicate variable %q", v.Name)
			}
			vars[v.Name] = v
			if kw == "OUTPUT" {
				if output != nil {
					return nil, fail("second OUTPUT")
				}
				// The system is built once the output's terms have arrived.
				output = v
			} else {
				if output == nil {
					return nil, fail("INPUT before OUTPUT")
				}
				// Terms arrive on later lines; attach to the system once
				// the whole file is read.
				inputOrder = append(inputOrder, v.Name)
			}
		case "TERM":
			if len(fields) < 4 {
				return nil, fail("TERM needs variable name shape …")
			}
			v, ok := vars[fields[1]]
			if !ok {
				return nil, fail("TERM for unknown variable %q", fields[1])
			}
			f, err := parseShape(fields[3], fields[4:])
			if err != nil {
				return nil, fail("%v", err)
			}
			if err := v.AddTerm(fields[2], f); err != nil {
				return nil, fail("%v", err)
			}
		case "RULE":
			// Defer rule parsing until all variables and terms exist.
			pendingRules = append(pendingRules, strings.TrimSpace(line[len("RULE"):]))
		default:
			return nil, fail("unknown keyword %q", fields[0])
		}
	}
	if output == nil {
		return nil, fmt.Errorf("fuzzy: fis has no OUTPUT")
	}
	sys, err := NewSystem(output)
	if err != nil {
		return nil, err
	}
	for _, name := range inputOrder {
		if err := sys.AddInput(vars[name]); err != nil {
			return nil, err
		}
	}
	for _, src := range pendingRules {
		if err := sys.AddRuleText(src); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

func parseNum(s string) (float64, error) {
	switch strings.ToLower(s) {
	case "-inf":
		return math.Inf(-1), nil
	case "inf", "+inf":
		return math.Inf(1), nil
	default:
		return strconv.ParseFloat(s, 64)
	}
}

func parseShape(kind string, args []string) (MembershipFunc, error) {
	nums := make([]float64, len(args))
	for i, a := range args {
		v, err := parseNum(a)
		if err != nil {
			return nil, fmt.Errorf("bad shape parameter %q", a)
		}
		nums[i] = v
	}
	switch strings.ToLower(kind) {
	case "tri":
		if len(nums) != 3 {
			return nil, fmt.Errorf("tri needs 3 parameters, got %d", len(nums))
		}
		f, err := NewTriangular(nums[0], nums[1], nums[2])
		return f, err
	case "trap":
		if len(nums) != 4 {
			return nil, fmt.Errorf("trap needs 4 parameters, got %d", len(nums))
		}
		f, err := NewTrapezoid(nums[0], nums[1], nums[2], nums[3])
		return f, err
	case "gauss":
		if len(nums) != 2 {
			return nil, fmt.Errorf("gauss needs 2 parameters, got %d", len(nums))
		}
		f, err := NewGaussian(nums[0], nums[1])
		return f, err
	case "singleton":
		if len(nums) != 1 {
			return nil, fmt.Errorf("singleton needs 1 parameter, got %d", len(nums))
		}
		return Singleton{X: nums[0]}, nil
	case "sigmoid":
		if len(nums) != 2 {
			return nil, fmt.Errorf("sigmoid needs 2 parameters, got %d", len(nums))
		}
		f, err := NewSigmoid(nums[0], nums[1])
		return f, err
	case "bell":
		if len(nums) != 3 {
			return nil, fmt.Errorf("bell needs 3 parameters, got %d", len(nums))
		}
		f, err := NewBell(nums[0], nums[1], nums[2])
		return f, err
	default:
		return nil, fmt.Errorf("unknown shape %q", kind)
	}
}
