package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"time"
)

// Every workload is a closed loop with one client: the next child process
// (or, for follow, the next appended batch) starts only when the previous
// one has been read to the end.
const (
	setupReps = 7 // set-ups per run; setup_s is their median
	minOps    = 3 // operations per run even when one outlasts --seconds
	shards    = 4 // K of the federated audit

	followBatchRows  = 64
	followMaxBatches = 120 // per session; the Small tail holds about 125
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"audit-k1", "audit-k4", "triage", "portal", "follow", "mine"}

// result is everything one run of one workload measured.
type result struct {
	Workload  string               `json:"workload"`
	SetupS    []float64            `json:"setup_s_samples"`
	OpMS      []float64            `json:"op_ms_samples"` // one per successful operation
	RSSMB     []float64            `json:"rss_mb_samples"`
	TTFBMS    []float64            `json:"first_byte_ms_samples,omitempty"`
	CPUS      []float64            `json:"cpu_s_samples,omitempty"`
	Rows      int64                `json:"rows_covered"` // log rows the successful operations covered
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"` // the first few, for diagnosis
	Counts    map[string]int64     `json:"exact_counts"`
	Metrics   map[string]float64   `json:"metrics"`
	Quartiles map[string]quartiles `json:"quartiles"`
}

func (r *result) fail(err error) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, err.Error())
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// finish derives the end-to-end metrics from the samples.
func (r *result) finish() error {
	if len(r.OpMS) == 0 {
		return fmt.Errorf("workload %s: no operation succeeded: %v", r.Workload, r.Failures)
	}
	r.Metrics = map[string]float64{
		"setup_s":     median(r.SetupS),
		"op_p50_ms":   median(r.OpMS),
		"op_p90_ms":   percentile(r.OpMS, 90),
		"rows_per_s":  float64(r.Rows) / (sum(r.OpMS) / 1e3),
		"peak_rss_mb": median(r.RSSMB),
	}
	r.Quartiles = map[string]quartiles{
		"setup_s": summarize(r.SetupS),
		"op_ms":   summarize(r.OpMS),
		"rss_mb":  summarize(r.RSSMB),
	}
	return nil
}

// runWorkload sets up (setupReps times, keeping the last), runs the untimed
// reference audit, then measures the named workload for b.seconds.
func (b *bench) runWorkload(ctx context.Context, name string) (*result, error) {
	res := &result{Workload: name, Counts: map[string]int64{}}
	var fix *fixture
	defer func() {
		if fix != nil {
			os.RemoveAll(fix.dir)
		}
	}()
	for i := 0; i < setupReps; i++ {
		if fix != nil {
			os.RemoveAll(fix.dir)
		}
		dir, err := os.MkdirTemp(b.tmp, name+"-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if fix, err = b.setup(ctx, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupS = append(res.SetupS, time.Since(start).Seconds())
	}
	ref, err := b.referenceAudit(ctx, fix)
	if err != nil {
		return nil, err
	}
	res.Counts["log_rows"] = int64(fix.rows)
	res.Counts["explained"] = int64(ref.explained)
	res.Counts["ndjson_bytes"] = ref.out.Bytes
	res.Counts["ndjson_crc32c"] = int64(ref.out.CRC)

	switch name {
	case "audit-k1":
		b.loop(ctx, fix, res, func(int) op { return auditOp(fix, ref, 1) })
	case "audit-k4":
		b.loop(ctx, fix, res, func(int) op { return auditOp(fix, ref, shards) })
	case "triage":
		b.loop(ctx, fix, res, func(int) op { return triageOp(fix, ref, res) })
	case "portal":
		order := append([]int64(nil), fix.patients...)
		rand.New(rand.NewSource(b.seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		b.loop(ctx, fix, res, func(i int) op { return portalOp(fix, order[i%len(order)]) })
	case "mine":
		var first uint32
		b.loop(ctx, fix, res, func(i int) op { return mineOp(fix, res, i, &first) })
	case "follow":
		deadline := time.Now().Add(b.budget())
		for s := 0; s == 0 || time.Now().Before(deadline); s++ {
			if err := b.followSession(ctx, fix, ref, res); err != nil {
				res.Attempted++ // a session that broke counts as one failed operation
				res.fail(err)
				break
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, res.finish()
}

// op is one child process of a workload: what to run, how many log rows it
// covers, whether it starts cold, and how to check what it printed.
type op struct {
	args  []string
	rows  int
	cold  bool
	check func(c child) error
}

// runOp runs one op and checks what it printed.
func (b *bench) runOp(ctx context.Context, fix *fixture, o op) (child, error) {
	if o.cold {
		if err := fix.dropSnapshot(); err != nil {
			return child{}, err
		}
	}
	c := b.run(ctx, o.args...)
	if c.Err != nil {
		return c, c.Err
	}
	return c, o.check(c)
}

// loop runs ops back to back until b.seconds have passed, at least minOps.
func (b *bench) loop(ctx context.Context, fix *fixture, res *result, next func(i int) op) {
	deadline := time.Now().Add(b.budget())
	for i := 0; (i < minOps || time.Now().Before(deadline)) && ctx.Err() == nil; i++ {
		o := next(i)
		c, err := b.runOp(ctx, fix, o)
		res.Attempted++
		if err != nil {
			res.fail(err)
			continue
		}
		res.OpMS = append(res.OpMS, ms(c.Wall))
		res.RSSMB = append(res.RSSMB, c.RSSMB)
		res.TTFBMS = append(res.TTFBMS, ms(c.Out.FirstByte))
		res.CPUS = append(res.CPUS, c.CPU.Seconds())
		res.Rows += int64(o.rows)
	}
}

// auditOp is the compliance officer's whole-log audit, cold, on k shards.
// Its NDJSON must be the reference's, byte for byte, whatever k is.
func auditOp(fix *fixture, ref *reference, k int) op {
	args := []string{"-store", fix.store, "audit", "-stream"}
	if k > 1 {
		args = append(args, "-shards", strconv.Itoa(k))
	}
	return op{args: args, rows: fix.rows, cold: true, check: func(c child) error {
		return checkAudit(c, fix.rows, ref)
	}}
}

func checkAudit(c child, rows int, ref *reference) error {
	reports, explained, err := auditSummary(c.Stderr)
	if err != nil {
		return err
	}
	switch {
	case c.Out.Lines != rows || reports != rows:
		return fmt.Errorf("audit: %d lines, %d reports, want %d", c.Out.Lines, reports, rows)
	case explained != ref.explained:
		return fmt.Errorf("audit: %d explained, reference has %d", explained, ref.explained)
	case c.Out.Bytes != ref.out.Bytes || c.Out.CRC != ref.out.CRC:
		return fmt.Errorf("audit: output %d bytes crc %08x, reference %d bytes crc %08x",
			c.Out.Bytes, c.Out.CRC, ref.out.Bytes, ref.out.CRC)
	}
	for _, lines := range [][][]byte{c.Out.Head, c.Out.Tail()} {
		for _, line := range lines {
			if !json.Valid(line) {
				return fmt.Errorf("audit: line is not JSON: %.80q", line)
			}
		}
	}
	return nil
}

var unexplainedRE = regexp.MustCompile(`^(\d+) of (\d+) accesses unexplained`)

// triageOp is the misuse shortlist, cold: open, plan, build every mask,
// render at most 20 rows.
func triageOp(fix *fixture, ref *reference, res *result) op {
	return op{args: []string{"-store", fix.store, "unexplained"}, rows: fix.rows, cold: true, check: func(c child) error {
		if c.Out.Lines == 0 {
			return errors.New("triage: no output")
		}
		m := unexplainedRE.FindSubmatch(c.Out.Head[0])
		if m == nil {
			return fmt.Errorf("triage: unexpected header %q", c.Out.Head[0])
		}
		n, _ := strconv.Atoi(string(m[1]))
		total, _ := strconv.Atoi(string(m[2]))
		if total != fix.rows || n != fix.rows-ref.explained {
			return fmt.Errorf("triage: %d of %d unexplained, want %d of %d", n, total, fix.rows-ref.explained, fix.rows)
		}
		res.Counts["unexplained"] = int64(n)
		return nil
	}}
}

var portalRE = regexp.MustCompile(`^access report for .* \((\d+) accesses\)`)

// portalOp is one patient's report, warm: the snapshot the reference audit
// left spares it the masks and the planner.
func portalOp(fix *fixture, patient int64) op {
	return op{args: []string{"-store", fix.store, "patient", "-id", strconv.FormatInt(patient, 10)}, rows: fix.rows, check: func(c child) error {
		if c.Out.Lines == 0 {
			return errors.New("portal: no output")
		}
		m := portalRE.FindSubmatch(c.Out.Head[0])
		if m == nil {
			return fmt.Errorf("portal: unexpected header %q", c.Out.Head[0])
		}
		if n, _ := strconv.Atoi(string(m[1])); n != fix.perPatient[patient] {
			return fmt.Errorf("portal: patient %d has %d accesses reported, %d in the log", patient, n, fix.perPatient[patient])
		}
		return nil
	}}
}

var (
	minedRE = regexp.MustCompile(`^mined (\d+) templates`)
	statsRE = regexp.MustCompile(`^stats: candidates=(\d+) queries=(\d+) cacheHits=(\d+) skipped=(\d+)$`)
)

// mineOp is the paper's template discovery, cold. first carries the output
// checksum of repetition 0 to the later ones.
func mineOp(fix *fixture, res *result, i int, first *uint32) op {
	return op{args: []string{"-store", fix.store, "mine", "-algo", "bridge-2", "-M", "5"}, rows: fix.rows, cold: true, check: func(c child) error {
		if c.Out.Lines < 2 {
			return errors.New("mine: no output")
		}
		mined := minedRE.FindSubmatch(c.Out.Head[0])
		tail := c.Out.Tail()
		stats := statsRE.FindSubmatch(tail[len(tail)-1])
		if mined == nil || stats == nil {
			return fmt.Errorf("mine: unexpected output %q ... %q", c.Out.Head[0], tail[len(tail)-1])
		}
		templates, _ := strconv.Atoi(string(mined[1]))
		if templates < 1 {
			return errors.New("mine: no template mined")
		}
		if i == 0 {
			*first = c.Out.CRC
		} else if c.Out.CRC != *first {
			return fmt.Errorf("mine: output crc %08x differs from the first repetition's %08x", c.Out.CRC, *first)
		}
		res.Counts["mine_templates"] = int64(templates)
		for j, key := range []string{"mine_candidates", "mine_support_queries", "mine_cache_hits", "mine_skipped"} {
			n, _ := strconv.Atoi(string(stats[j+1]))
			res.Counts[key] = int64(n)
		}
		return nil
	}}
}

// followSession is writes beside reads: one `audit -follow` child over the
// base log; once its catch-up stream has drained (warm-up, untimed), the
// tail is appended to Log.csv in batches of complete rows, each timed from
// the end of the write to the receipt of its last NDJSON line. Every report
// must equal the reference audit's line for the same row.
func (b *bench) followSession(ctx context.Context, fix *fixture, ref *reference, res *result) error {
	dir, err := os.MkdirTemp(fix.dir, "follow-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	data := filepath.Join(dir, "data")
	if err := fix.baseData(data); err != nil {
		return err
	}
	tailRows := bytes.SplitAfter(fix.tail, []byte("\n"))
	batches := min((len(tailRows)-1)/followBatchRows, followMaxBatches) // SplitAfter leaves a trailing empty element
	if batches == 0 {
		return fmt.Errorf("follow: tail of %d rows is shorter than one batch", len(tailRows)-1)
	}
	total := fix.baseRows + batches*followBatchRows

	// The watchdog turns a child that stops answering into an EOF here.
	ctx, cancel := context.WithTimeout(ctx, b.budget()+2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.exe, "-j", strconv.Itoa(b.workers), "-data", data, "-store", filepath.Join(dir, "store"),
		"audit", "-follow", "-poll", "1ms", "-follow-rows", strconv.Itoa(total))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	// From here on the child is reaped on every path.
	finish := func(err error) error {
		if err != nil {
			cancel()
		}
		waitErr := cmd.Wait()
		if err == nil && waitErr != nil {
			err = fmt.Errorf("follow: %w; stderr: %s", waitErr, lastLine(stderr.String()))
		}
		return err
	}
	rd := bufio.NewReaderSize(out, 1<<20)
	row := 0 // next log row whose report is due
	readReport := func() ([]byte, error) {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			return nil, fmt.Errorf("follow: report of row %d: %w; stderr: %s", row, err, lastLine(stderr.String()))
		}
		row++
		return line[:len(line)-1], nil
	}
	for row < fix.baseRows {
		line, err := readReport()
		if err != nil {
			return finish(err)
		}
		if crc32.Checksum(line, castagnoli) != ref.out.LineCRC[row-1] {
			return finish(fmt.Errorf("follow: catch-up report of row %d differs from the one-shot audit's", row-1))
		}
	}

	log, err := os.OpenFile(filepath.Join(data, logCSV), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return finish(err)
	}
	defer log.Close()
	reports := make([][]byte, followBatchRows)
	for k := 0; k < batches; k++ {
		rows := tailRows[k*followBatchRows : (k+1)*followBatchRows]
		if _, err := log.Write(bytes.Join(rows, nil)); err != nil {
			return finish(err)
		}
		start := time.Now()
		for i := range reports {
			if reports[i], err = readReport(); err != nil {
				return finish(err)
			}
		}
		lag := time.Since(start)
		res.Attempted++
		if err := checkBatch(fix.lidCol, rows, reports, ref.out.LineCRC[row-followBatchRows:row]); err != nil {
			res.fail(err)
			continue
		}
		res.OpMS = append(res.OpMS, ms(lag))
		res.Rows += followBatchRows
	}
	// -follow-rows ends the child after the last batch; anything more on
	// its stdout would be a report delivered twice.
	if extra, _ := io.Copy(io.Discard, rd); extra > 0 {
		return finish(fmt.Errorf("follow: %d unexpected bytes after the last report", extra))
	}
	if err := finish(nil); err != nil {
		return err
	}
	cpu, rss := usage(cmd)
	res.RSSMB = append(res.RSSMB, rss)
	res.CPUS = append(res.CPUS, cpu.Seconds())
	return nil
}

// checkBatch verifies that the appended rows came back exactly once and in
// order (by Lid) and that each report is the one-shot audit's.
func checkBatch(lidCol int, rows, reports [][]byte, want []uint32) error {
	for i, rep := range reports {
		var got struct {
			Lid int64 `json:"lid"`
		}
		if err := json.Unmarshal(rep, &got); err != nil {
			return fmt.Errorf("follow: report is not JSON: %.80q", rep)
		}
		if lid, _ := strconv.ParseInt(string(field(rows[i], lidCol)), 10, 64); got.Lid != lid {
			return fmt.Errorf("follow: got the report of Lid %d where Lid %d was due", got.Lid, lid)
		}
		if crc32.Checksum(rep, castagnoli) != want[i] {
			return fmt.Errorf("follow: report of Lid %d differs from the one-shot audit's", got.Lid)
		}
	}
	return nil
}
