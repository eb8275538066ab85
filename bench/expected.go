package main

import "fmt"

// seed1Counts are the exact counts the program produces at seed 1, per
// scale and workload (README.md lists them). They are a tripwire, not a
// check: a mismatch is reported loudly on stderr and in result.json, but
// only the cross-checks against the reference audit decide correctness.
var seed1Counts = map[string]map[string]int64{
	"small": {
		"log_rows": 24006, "explained": 23741, "unexplained": 265, "explanations": 248093,
		"ndjson_bytes": 42883408, "ndjson_crc32c": 27726430,
		"mine_templates": 132, "mine_candidates": 675, "mine_support_queries": 244, "mine_cache_hits": 143, "mine_skipped": 288,
	},
	"medium": {"log_rows": 95257, "explained": 94253, "unexplained": 1004, "explanations": 991456, "ndjson_bytes": 171886554},
}

func seed1Mismatches(scale string, seed int64, workload string, got map[string]int64) []string {
	if seed != 1 {
		return nil
	}
	var out []string
	for key, want := range seed1Counts[scale] {
		if v, ok := got[key]; ok && v != want {
			out = append(out, fmt.Sprintf("%s: %s = %d, expected %d", workload, key, v, want))
		}
	}
	return out
}
