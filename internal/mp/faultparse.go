package mp

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParsePlan turns a -chaos flag spec into a fault-injection plan, shared by
// every binary that arms engine chaos. The spec is a comma-separated list
// of directives, one per fault class the engine survives:
//
//	seed=N                 RNG seed for the delay draws (default 1)
//	crash=RANK:AFTER[:TAG] kill rank RANK on its AFTER-th operation carrying
//	                       message tag TAG (default 1, the slave report tag;
//	                       0 matches every tag)
//	delay=P:DUR            stall a send for DUR with probability P
//
// Any other key is an unknown directive.
//
// Example: 'crash=2:5,delay=0.1:2ms,seed=7'
func ParsePlan(spec string) (*FaultPlan, error) {
	plan := &FaultPlan{Seed: 1}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("chaos directive %q is not key=value", part)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos seed: %v", err)
			}
			plan.Seed = n
		case "crash":
			fields := strings.Split(val, ":")
			if len(fields) < 2 || len(fields) > 3 {
				return nil, fmt.Errorf("chaos crash wants RANK:AFTER[:TAG], got %q", val)
			}
			rank, err1 := strconv.Atoi(fields[0])
			after, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("chaos crash %q: rank and after must be integers", val)
			}
			tag := 1 // the slave-report tag: crashes land inside the protocol loop
			if len(fields) == 3 {
				tag, err1 = strconv.Atoi(fields[2])
				if err1 != nil {
					return nil, fmt.Errorf("chaos crash tag: %v", err1)
				}
			}
			plan.CrashRank, plan.CrashAfter, plan.CrashTag = rank, after, tag
		case "delay":
			pStr, dStr, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("chaos delay wants P:DURATION, got %q", val)
			}
			p, err := parseProb(pStr)
			if err != nil {
				return nil, fmt.Errorf("chaos delay: %v", err)
			}
			d, err := time.ParseDuration(dStr)
			if err != nil {
				return nil, fmt.Errorf("chaos delay: %v", err)
			}
			plan.DelayProb, plan.Delay = p, d
		default:
			return nil, fmt.Errorf("unknown chaos directive %q", key)
		}
	}
	return plan, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %g outside [0,1]", p)
	}
	return p, nil
}
