//go:build !linux

package main

import "time"

// logWatch is follow mode's wait between polls. Without inotify it sleeps
// out the timeout: -poll is then the cadence, not only the longest wait.
type logWatch struct{}

func watchLog(dir, name string) *logWatch { return &logWatch{} }

func (*logWatch) wait(timeout time.Duration) { time.Sleep(timeout) }

func (*logWatch) Close() error { return nil }
