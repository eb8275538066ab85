package core

import (
	"repro/internal/explain"
	"repro/internal/pathmodel"
	"repro/internal/store"
)

// CaptureWarmState snapshots the auditor's reusable derived state — every
// cached template mask with its watermarks — as a store.WarmState ready for
// Store.SaveWarmState. HistRows is recorded as a row count: a live Log
// table's history is purely append-only and grows one Append per row, so
// its AppendVersion watermark and its row count are the same number, and a
// row count is what survives a process restart.
// CaptureWarmState requires the same exclusive access as the other
// configuration methods (the batch methods may be filling masks
// concurrently).
func (a *Auditor) CaptureWarmState() *store.WarmState {
	ws := &store.WarmState{LogTable: pathmodel.LogTable}
	a.mu.Lock()
	for i, t := range a.templates {
		e, ok := a.masks[i]
		if !ok {
			continue
		}
		ws.Masks = append(ws.Masks, store.MaskState{
			Template: t.Name(),
			Rows:     e.rows,
			HistRows: int(e.hist),
			Bits:     e.bits,
		})
	}
	a.mu.Unlock()
	return ws
}

// InstallWarmState seeds a freshly configured auditor from a snapshot the
// store has already validated (Store.LoadWarmState): cached masks are
// installed where their watermarks prove them still correct, and it returns
// how many were. Nothing here reads a table's rows or prepares a plan, so a
// warm command that only renders (a patient report) never lowers one. The
// install rules are exactly the mask cache's own staleness policy, applied
// across a restart:
//
//   - an append-monotone template's mask is a valid prefix as long as its
//     row watermark has not passed the current log — the next Refresh or
//     lazy mask access extends it over the appended suffix only;
//   - any other template's mask is valid only at exactly its watermarks
//     (both the audited rows it spans and the history it was computed
//     against), since history growth can flip its past classifications.
//
// A mask that fails its rule — or whose serialized bits disagree with the
// recorded watermark — is skipped, leaving that template to a cold build:
// warm start degrades to cold start per template, never to a wrong mask.
// Masks of template names the auditor does not have are ignored.
// InstallWarmState requires exclusive access, like the configuration
// methods it extends.
func (a *Auditor) InstallWarmState(ws *store.WarmState) (masks int) {
	n := a.ev.Log().NumRows()
	hist := a.histVersion()
	byName := make(map[string]int, len(a.templates))
	for i := len(a.templates) - 1; i >= 0; i-- {
		byName[a.templates[i].Name()] = i // first registration wins
	}
	a.mu.Lock()
	for _, m := range ws.Masks {
		i, ok := byName[m.Template]
		if !ok || m.Bits == nil || m.Bits.Len() != m.Rows {
			continue
		}
		if _, filled := a.masks[i]; filled {
			continue
		}
		if explain.AppendMonotone(a.templates[i]) {
			if m.Rows > n {
				continue
			}
		} else if m.Rows != n || uint64(m.HistRows) != hist {
			continue
		}
		a.masks[i] = &maskEntry{bits: m.Bits, rows: m.Rows, hist: hist}
		masks++
	}
	a.mu.Unlock()
	return masks
}
