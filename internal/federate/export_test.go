package federate

import "fmt"

// StreamPath runs stream and reports the path the federation's stream
// calls inside it took: "in-order" (contiguous shards, one after another)
// or "merge" (the k-way merge). It reads the process-wide path counters,
// so callers must not stream on another goroutine meanwhile.
func StreamPath(stream func() error) (string, error) {
	inOrder, merged := streamInOrderRuns.Value(), streamMergedRuns.Value()
	err := stream()
	dIn, dMerged := streamInOrderRuns.Value()-inOrder, streamMergedRuns.Value()-merged
	switch {
	case dIn > 0 && dMerged == 0:
		return "in-order", err
	case dMerged > 0 && dIn == 0:
		return "merge", err
	}
	return fmt.Sprintf("%d in-order and %d merge calls", dIn, dMerged), err
}
