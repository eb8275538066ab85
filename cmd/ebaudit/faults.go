package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/fault"
)

// installFaults parses the -faults spec and arms the process-wide fault
// registry, seeding it from the generator seed so a chaos run replays the
// same fault sequence every time. An empty spec is a no-op.
func installFaults(spec string, seed int64) error {
	if spec == "" {
		return nil
	}
	rules, err := parseFaultRules(spec)
	if err != nil {
		return err
	}
	fault.Default.SetSeed(uint64(seed))
	fault.Install(rules...)
	return nil
}

// parseFaultRules parses the -faults value: comma-separated
// SITE:KIND[:COUNT[:AFTER]] entries, where SITE is an injection-site name
// (trailing * matches a prefix — "federate.shard1.*" arms every seam of
// that shard), KIND is one of
//
//	error      permanent (non-retryable) injected error
//	flaky      transient (retryable) injected error
//	delay=DUR  sleep DUR, then proceed normally
//	panic      panic with an injected error (contained by the engine)
//
// COUNT is how many times the rule fires before healing (0 or omitted =
// never heals), and AFTER is how many matched calls pass through first.
// "federate.shard1.stream:flaky:2:3" reads "shard 1's stream seam: let 3
// calls through, fail the next 2, then heal".
func parseFaultRules(spec string) ([]fault.Rule, error) {
	var rules []fault.Rule
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("-faults %q contains an empty entry", spec)
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 4 {
			return nil, fmt.Errorf("-faults entry %q: want SITE:KIND[:COUNT[:AFTER]]", entry)
		}
		r := fault.Rule{Site: parts[0]}
		if r.Site == "" {
			return nil, fmt.Errorf("-faults entry %q has an empty site", entry)
		}
		kind := parts[1]
		switch {
		case kind == "error":
			r.Kind = fault.KindError
		case kind == "flaky":
			r.Kind = fault.KindError
			r.Err = fault.Retryable(errors.New("injected transient fault"))
		case kind == "panic":
			r.Kind = fault.KindPanic
		case strings.HasPrefix(kind, "delay="):
			d, err := time.ParseDuration(kind[len("delay="):])
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("-faults entry %q: bad delay (want delay=DUR with a positive duration)", entry)
			}
			r.Kind = fault.KindDelay
			r.Delay = d
		default:
			return nil, fmt.Errorf("-faults entry %q: unknown kind %q (want error, flaky, delay=DUR, or panic)", entry, kind)
		}
		if len(parts) >= 3 {
			n, err := strconv.Atoi(parts[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("-faults entry %q: bad count %q (want a non-negative integer; 0 never heals)", entry, parts[2])
			}
			r.Count = n
		}
		if len(parts) == 4 {
			n, err := strconv.Atoi(parts[3])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("-faults entry %q: bad after %q (want a non-negative integer)", entry, parts[3])
			}
			r.After = n
		}
		rules = append(rules, r)
	}
	return rules, nil
}
