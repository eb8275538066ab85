package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// keepLines is how many lines from each end of a child's output are kept
// for parsing; everything between is only counted and checksummed.
const keepLines = 100

// stream is what the pipe reader learns about a child's standard output
// without holding on to it.
type stream struct {
	Bytes     int64
	Lines     int
	CRC       uint32        // CRC-32C of the whole stream
	LineCRC   []uint32      // CRC-32C of each line, newline excluded
	FirstByte time.Duration // from start to the first byte read
	Head      [][]byte      // first keepLines lines
	tail      [][]byte      // ring of the last keepLines lines
}

// Tail returns the last lines in order.
func (s *stream) Tail() [][]byte {
	if s.Lines <= keepLines {
		return s.tail[:s.Lines]
	}
	out := make([][]byte, 0, keepLines)
	for i := s.Lines; i < s.Lines+keepLines; i++ {
		out = append(out, s.tail[i%keepLines])
	}
	return out
}

func (s *stream) endLine(line []byte, crc uint32) {
	if len(s.Head) < keepLines {
		s.Head = append(s.Head, append([]byte(nil), line...))
	}
	if s.tail == nil {
		s.tail = make([][]byte, keepLines)
	}
	slot := s.Lines % keepLines
	s.tail[slot] = append(s.tail[slot][:0], line...)
	s.LineCRC = append(s.LineCRC, crc)
	s.Lines++
}

// readStream drains r, counting and checksumming as it goes. start is the
// moment the child was started, the origin of FirstByte. An unterminated
// final line is counted as a line.
func readStream(r io.Reader, start time.Time) (*stream, error) {
	s := &stream{}
	buf := make([]byte, 256<<10)
	var line []byte
	var lineCRC uint32
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if s.Bytes == 0 {
				s.FirstByte = time.Since(start)
			}
			s.Bytes += int64(n)
			chunk := buf[:n]
			s.CRC = crc32.Update(s.CRC, castagnoli, chunk)
			for len(chunk) > 0 {
				i := bytes.IndexByte(chunk, '\n')
				if i < 0 {
					lineCRC = crc32.Update(lineCRC, castagnoli, chunk)
					line = append(line, chunk...)
					break
				}
				lineCRC = crc32.Update(lineCRC, castagnoli, chunk[:i])
				if len(line) == 0 { // the usual case: the line lies within this read
					s.endLine(chunk[:i], lineCRC)
				} else {
					line = append(line, chunk[:i]...)
					s.endLine(line, lineCRC)
					line = line[:0]
				}
				lineCRC = 0
				chunk = chunk[i+1:]
			}
		}
		if err == io.EOF {
			if len(line) > 0 {
				s.endLine(line, lineCRC)
			}
			return s, nil
		}
		if err != nil {
			return s, err
		}
	}
}

// child is one finished run of the program under test, measured from
// outside: wall clock around the process, output through the pipe, CPU and
// peak memory from the rusage the kernel hands back at wait.
type child struct {
	Args   []string
	Wall   time.Duration
	Out    *stream
	Stderr string
	CPU    time.Duration
	RSSMB  float64 // ru_maxrss, which Linux reports in KiB
	Err    error   // start, read or exit failure
}

// runChild runs exe with args to completion, one goroutine (this one)
// reading its standard output through a pipe. ctx cancellation kills it.
func runChild(ctx context.Context, exe string, args ...string) child {
	c := child{Args: args}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		c.Err = err
		return c
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		c.Err = err
		return c
	}
	var readErr error
	c.Out, readErr = readStream(out, start)
	waitErr := cmd.Wait()
	c.Wall = time.Since(start)
	c.Stderr = stderr.String()
	c.CPU, c.RSSMB = usage(cmd)
	switch {
	case waitErr != nil:
		c.Err = fmt.Errorf("%v: %w; stderr: %s", args, waitErr, lastLine(c.Stderr))
	case readErr != nil:
		c.Err = fmt.Errorf("%v: reading stdout: %w", args, readErr)
	}
	return c
}

// usage reads a waited-for child's CPU time and peak RSS.
func usage(cmd *exec.Cmd) (cpu time.Duration, rssMB float64) {
	if cmd.ProcessState == nil {
		return 0, 0
	}
	cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024
	}
	return cpu, rssMB
}

func lastLine(s string) string {
	s = strings.TrimRight(s, "\n")
	return s[strings.LastIndexByte(s, '\n')+1:]
}
