package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"syscall"
	"time"
)

// logWatch is follow mode's wait between polls: an inotify watch on the
// -data directory that ends the wait as soon as the named file is written,
// created or renamed onto. The inotify file is non-blocking and read under
// a deadline, so no goroutine ever sits in a read and nothing outlives
// Close.
type logWatch struct {
	f    *os.File // nil when inotify could not start: wait then sleeps
	name []byte
	buf  []byte
}

// watchLog starts a watch for writes to file name in dir. A watch that
// cannot start is not an error: its wait sleeps out the timeout, the
// cadence follow mode has on every other OS.
func watchLog(dir, name string) *logWatch {
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return &logWatch{}
	}
	const mask = syscall.IN_MODIFY | syscall.IN_CLOSE_WRITE | syscall.IN_CREATE | syscall.IN_MOVED_TO
	if _, err := syscall.InotifyAddWatch(fd, dir, mask); err != nil {
		syscall.Close(fd)
		return &logWatch{}
	}
	return &logWatch{f: os.NewFile(uintptr(fd), "inotify"), name: []byte(name), buf: make([]byte, 4096)}
}

// wait returns once the watched file has been written since the last wait
// returned (at once when that already happened), or after timeout. Events
// that name other files in the directory — a -store kept inside -data is
// written on every batch — do not end it; a queue overflow, which may have
// dropped an event that did name the file, does.
func (w *logWatch) wait(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	if w.f == nil || w.f.SetReadDeadline(deadline) != nil {
		time.Sleep(timeout)
		return
	}
	for {
		n, err := w.f.Read(w.buf)
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				time.Sleep(time.Until(deadline))
			}
			return
		}
		if w.named(w.buf[:n]) {
			return
		}
	}
}

// named reports whether any event in buf, a whole number of inotify
// records, names the watched file or reports a queue overflow.
func (w *logWatch) named(buf []byte) bool {
	for len(buf) >= syscall.SizeofInotifyEvent {
		// struct inotify_event: wd, mask, cookie, len, then len bytes of
		// NUL-padded name.
		mask := binary.NativeEndian.Uint32(buf[4:])
		end := min(syscall.SizeofInotifyEvent+int(binary.NativeEndian.Uint32(buf[12:])), len(buf))
		name := bytes.TrimRight(buf[syscall.SizeofInotifyEvent:end], "\x00")
		if mask&syscall.IN_Q_OVERFLOW != 0 || bytes.Equal(name, w.name) {
			return true
		}
		buf = buf[end:]
	}
	return false
}

// Close stops the watch.
func (w *logWatch) Close() error {
	if w.f == nil {
		return nil
	}
	return w.f.Close()
}
