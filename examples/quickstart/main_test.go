package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestProgramRuns runs the program and checks what it reports: the strided
// message arrives whole and rank 1 reads the put from its window. A failed
// call, or a put that does not arrive, ends the test binary (log.Fatal).
func TestProgramRuns(t *testing.T) {
	out := captureStdout(t, main)
	for _, want := range []string{
		"rank 1: received 16384 bytes from rank 0",
		"rank 1: window[0] = 3.14159 after fence",
		"simulation finished at virtual time",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
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
