package mine

import "testing"

// TestBridgedPanicsOnShortBridge pins bridged's guard: Run only names
// bridge-N for N >= 2, and a shorter bridge is a programming error.
func TestBridgedPanicsOnShortBridge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bridgeLen < 2")
		}
	}()
	bridged(nil, nil, DefaultOptions(), 1)
}
