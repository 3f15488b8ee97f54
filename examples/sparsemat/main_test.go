package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// TestChecksumMatchesSerial runs the program, which checks every row of
// y = A*x itself (a wrong row, or a failed call, ends the test binary
// through log.Fatal), and compares the checksum it reports with a serial
// y = A*x.
func TestChecksumMatchesSerial(t *testing.T) {
	out := captureStdout(t, main)
	var got float64
	i := strings.Index(out, "checksum ")
	if i < 0 {
		t.Fatalf("no checksum in the output:\n%s", out)
	}
	if _, err := fmt.Sscanf(out[i:], "checksum %f", &got); err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for row := 0; row < globalN; row++ {
		for _, e := range rowEntries(row) {
			want += e.val * xInit(e.col)
		}
	}
	if math.Abs(got-want) > 1e-6*math.Abs(want) {
		t.Fatalf("checksum = %v, want %v", got, want)
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
