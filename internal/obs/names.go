package obs

import (
	"strconv"
	"strings"
)

// Numbered is the names of the n records of one kind — a prefix, the
// record's index in decimal and a suffix, as in "rank3" or "node3-egress" —
// cut from one string. A world names its ranks, devices, nodes and links
// this way: one allocation per kind, where formatting each name is one per
// record.
type Numbered struct {
	s     string
	fixed int // len(prefix) + len(suffix)
}

// NewNumbered builds the names of records 0 to n-1.
func NewNumbered(prefix string, n int, suffix string) Numbered {
	ns := Numbered{fixed: len(prefix) + len(suffix)}
	var b strings.Builder
	b.Grow(n*ns.fixed + digitsBelow(n))
	var digits [20]byte
	for i := 0; i < n; i++ {
		b.WriteString(prefix)
		b.Write(strconv.AppendInt(digits[:0], int64(i), 10))
		b.WriteString(suffix)
	}
	ns.s = b.String()
	return ns
}

// At returns record i's name.
func (ns Numbered) At(i int) string {
	off := i*ns.fixed + digitsBelow(i)
	return ns.s[off : off+ns.fixed+digitsBelow(i+1)-digitsBelow(i)]
}

// digitsBelow returns the number of decimal digits of 0, 1, ..., n-1 together.
func digitsBelow(n int) int {
	total := 0
	for lo, hi, d := 0, 10, 1; lo < n; lo, hi, d = hi, hi*10, d+1 {
		total += (min(n, hi) - lo) * d
	}
	return total
}
