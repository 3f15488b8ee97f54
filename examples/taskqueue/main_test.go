package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestEveryTaskOnce runs the program, which checks that every task ran
// exactly once and that no rank starved (a failure, or a failed call,
// ends the test binary through log.Fatal), and reads its report.
func TestEveryTaskOnce(t *testing.T) {
	out := captureStdout(t, main)
	if want := "64 tasks executed exactly once"; !strings.Contains(out, want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
}

// captureStdout returns what run prints.
func captureStdout(t *testing.T, run func()) string {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	run()
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
