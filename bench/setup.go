package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"time"
)

// buildDir is where everything a run leaves behind goes: the go build cache
// and binaries (run.sh), and one temporary directory per process for the
// datasets and stores, removed on exit.
const buildDir = ".bench_build"

// bench is one process's fixed settings.
type bench struct {
	root    string // checkout root: holds BENCHMARK.json and cmd/ebaudit
	exe     string // the built ebaudit binary
	tmp     string // per-process temporary root under buildDir
	scale   string
	seed    int64
	seconds float64
	workers int // passed to every child as -j
	buildS  float64
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json, so the benchmark runs the same from the checkout root
// (run.sh) and from bench/ (go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

// prepare builds the program under test from source and makes the
// temporary root. Call cleanup when done, on every path.
func (b *bench) prepare(ctx context.Context) error {
	out := filepath.Join(b.root, buildDir)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	b.exe = filepath.Join(out, "ebaudit")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", b.exe, "./cmd/ebaudit")
	cmd.Dir = b.root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/ebaudit: %w\n%s", err, msg)
	}
	b.buildS = time.Since(start).Seconds()
	var err error
	b.tmp, err = os.MkdirTemp(out, "run-")
	return err
}

func (b *bench) cleanup() {
	if b.tmp != "" {
		os.RemoveAll(b.tmp)
	}
}

// budget is how long a workload is measured.
func (b *bench) budget() time.Duration { return time.Duration(b.seconds * float64(time.Second)) }

// run starts one child of the program under test with the recorded worker
// count.
func (b *bench) run(ctx context.Context, args ...string) child {
	return runChild(ctx, b.exe, append([]string{"-j", strconv.Itoa(b.workers)}, args...)...)
}

// fixture is one set-up's inputs: the exported CSV dataset, the store made
// from it, and the log split for follow.
type fixture struct {
	dir        string
	data       string // typed CSVs, the `ebaudit export` format
	store      string
	rows       int    // log rows
	base       []byte // Log.csv up to the split, header included
	tail       []byte // the remaining rows
	baseRows   int
	lidCol     int           // index of the Lid column in Log.csv
	perPatient map[int64]int // log rows per patient
	patients   []int64       // distinct patients in first-seen order
}

const logCSV = "Log.csv"

// setup generates the dataset for the seed, exports it, creates the store
// and splits the log. It is the timed part of set-up; the untimed reference
// audit follows separately.
func (b *bench) setup(ctx context.Context, dir string) (*fixture, error) {
	f := &fixture{dir: dir, data: filepath.Join(dir, "data"), store: filepath.Join(dir, "store")}
	if c := b.run(ctx, "-scale", b.scale, "-seed", strconv.FormatInt(b.seed, 10), "export", "-dir", f.data); c.Err != nil {
		return nil, c.Err
	}
	if c := b.run(ctx, "-data", f.data, "-store", f.store, "summary"); c.Err != nil {
		return nil, c.Err
	}
	csv, err := os.ReadFile(filepath.Join(f.data, logCSV))
	if err != nil {
		return nil, err
	}
	f.base, f.tail, err = splitLog(csv)
	if err != nil {
		return nil, err
	}
	if f.lidCol, err = logColumn(f.base[:bytes.IndexByte(f.base, '\n')], "Lid"); err != nil {
		return nil, err
	}
	f.baseRows = bytes.Count(f.base, []byte("\n")) - 1
	f.rows = f.baseRows + bytes.Count(f.tail, []byte("\n"))
	f.perPatient, f.patients, err = patientCounts(csv)
	return f, err
}

// logColumn returns the index of the named column in a typed-CSV header
// such as "Lid:int,Date:date,User:int,Patient:int".
func logColumn(header []byte, name string) (int, error) {
	for i, col := range bytes.Split(header, []byte(",")) {
		if bytes.HasPrefix(col, []byte(name+":")) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%s has no %s column: %q", logCSV, name, header)
}

// field returns the i-th comma-separated field of a row; the export format
// never quotes.
func field(row []byte, i int) []byte {
	for ; i > 0; i-- {
		j := bytes.IndexByte(row, ',')
		if j < 0 {
			return nil
		}
		row = row[j+1:]
	}
	if j := bytes.IndexByte(row, ','); j >= 0 {
		row = row[:j]
	}
	return row
}

// splitLog cuts a chronological Log.csv at the first row of its last
// simulated day: base keeps the header and every earlier row, tail the
// last day's rows, both in their original order and newline-terminated.
func splitLog(csv []byte) (base, tail []byte, err error) {
	if len(csv) == 0 || csv[len(csv)-1] != '\n' {
		return nil, nil, fmt.Errorf("%s is empty or does not end in a newline", logCSV)
	}
	headerEnd := bytes.IndexByte(csv, '\n')
	dateCol, err := logColumn(csv[:headerEnd], "Date")
	if err != nil {
		return nil, nil, err
	}
	lastRow := csv[bytes.LastIndexByte(csv[:len(csv)-1], '\n')+1 : len(csv)-1]
	lastDay := field(lastRow, dateCol)
	// Walk back over the rows of the last day.
	cut := len(csv)
	for cut > headerEnd+1 {
		rowStart := bytes.LastIndexByte(csv[:cut-1], '\n') + 1
		if !bytes.Equal(field(csv[rowStart:cut-1], dateCol), lastDay) {
			break
		}
		cut = rowStart
	}
	if cut == headerEnd+1 || cut == len(csv) {
		return nil, nil, fmt.Errorf("%s spans a single day; nothing to split", logCSV)
	}
	return csv[:cut], csv[cut:], nil
}

// patientCounts counts log rows per patient.
func patientCounts(csv []byte) (map[int64]int, []int64, error) {
	headerEnd := bytes.IndexByte(csv, '\n')
	col, err := logColumn(csv[:headerEnd], "Patient")
	if err != nil {
		return nil, nil, err
	}
	counts := map[int64]int{}
	var order []int64
	for _, row := range bytes.Split(bytes.TrimRight(csv[headerEnd+1:], "\n"), []byte("\n")) {
		id, err := strconv.ParseInt(string(field(row, col)), 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("%s row %q: %w", logCSV, row, err)
		}
		if counts[id] == 0 {
			order = append(order, id)
		}
		counts[id]++
	}
	return counts, order, nil
}

// baseData makes a fresh copy of the dataset whose Log.csv holds only the
// base rows, for one follow session to append to.
func (f *fixture) baseData(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(f.data)
	if err != nil {
		return err
	}
	for _, e := range entries {
		content := f.base
		if e.Name() != logCSV {
			if content, err = os.ReadFile(filepath.Join(f.data, e.Name())); err != nil {
				return err
			}
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), content, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dropSnapshot makes the next open of the store a cold start.
func (f *fixture) dropSnapshot() error {
	err := os.Remove(filepath.Join(f.store, "WARM.snap"))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// reference is the untimed one-shot audit every workload's outputs are
// checked against. It also leaves the warm snapshot in the store and the
// store's files in the page cache.
type reference struct {
	explained int
	out       *stream
}

var streamedRE = regexp.MustCompile(`streamed (\d+) reports .*explained: (\d+) `)

// auditSummary parses the stderr summary of `audit -stream`.
func auditSummary(stderr string) (reports, explained int, err error) {
	m := streamedRE.FindStringSubmatch(stderr)
	if m == nil {
		return 0, 0, fmt.Errorf("no audit summary on stderr: %q", lastLine(stderr))
	}
	reports, _ = strconv.Atoi(m[1])
	explained, _ = strconv.Atoi(m[2])
	return reports, explained, nil
}

func (b *bench) referenceAudit(ctx context.Context, f *fixture) (*reference, error) {
	c := b.run(ctx, "-store", f.store, "audit", "-stream")
	if c.Err != nil {
		return nil, c.Err
	}
	reports, explained, err := auditSummary(c.Stderr)
	if err != nil {
		return nil, err
	}
	if reports != f.rows || c.Out.Lines != f.rows {
		return nil, fmt.Errorf("reference audit: %d reports, %d lines, want %d log rows", reports, c.Out.Lines, f.rows)
	}
	return &reference{explained: explained, out: c.Out}, nil
}
