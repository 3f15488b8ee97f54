package mpi

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"scimpich/internal/datatype"
	"scimpich/internal/obs/flight"
)

// TestCollFlightGolden pins the operation order of every collective: each
// kind under each of its forced families, on 2×1, 3×1 and 4×2, at a short,
// an eager and a rendezvous size (allreduce with distinct buffers and in
// place, bcast and allreduce also with a derived type), runs one call with
// the flight recorder on and compares three things with the table: the
// FNV-1a of the merged flight dump (every rank's posts, matches, deposits
// and acks with their instants, peers, tags and byte counts, in recorder
// order; bench/engine.go's dump_fnv), the virtual end of the run, and the
// FNV-1a of every rank's result bytes. BENCH_coll.json checks the timing of
// a call only; this table checks what runs, and in which order.
func TestCollFlightGolden(t *testing.T) {
	for _, sh := range []struct {
		name       string
		nodes, ppn int
	}{{"2x1", 2, 1}, {"3x1", 3, 1}, {"4x2", 4, 2}} {
		for _, gc := range collGoldenCases() {
			for _, alg := range collFamilies[gc.kind] {
				key := fmt.Sprintf("%s/%s/%s/%s", sh.name, gc.name, alg, gc.size)
				got := collGoldenRun(t, sh.nodes, sh.ppn, alg, gc)
				if want, ok := collFlightGolden[key]; !ok || got != want {
					t.Errorf("%s: got %q, want %q\n\t%q: %q,", key, got, want, key, got)
				}
			}
		}
	}
}

// collGoldenCase is one call of the golden table: kind on a payload of
// bytes (bcast, reduce, allreduce) or a per-pair block of bytes (gather,
// allgather, alltoall), with dt's elements, in place or not.
type collGoldenCase struct {
	name    string
	kind    collKind
	size    string // short, eager or rdv
	bytes   int
	dt      *datatype.Type
	inPlace bool
}

func collGoldenCases() []collGoldenCase {
	vec := datatype.Vector(64, 1, 2, datatype.Float64).Commit() // 512 B in an extent of 1016
	cases := []collGoldenCase{{name: "barrier", kind: collBarrier, size: "-", dt: datatype.Byte}}
	for _, sz := range []struct {
		name                      string
		payload, reduce, blockLen int
	}{
		{"short", 16, 16, 16},
		{"eager", 4 << 10, 4 << 10, 4 << 10},
		// 300 KiB is three one-sided chunks; 256 KiB is 32 KiB ring blocks on
		// 8 ranks.
		{"rdv", 300 << 10, 256 << 10, 32 << 10},
	} {
		cases = append(cases,
			collGoldenCase{"bcast", collBcast, sz.name, sz.payload, datatype.Byte, false},
			collGoldenCase{"reduce", collReduce, sz.name, sz.reduce, datatype.Float64, false},
			collGoldenCase{"allreduce", collAllreduce, sz.name, sz.reduce, datatype.Float64, false},
			collGoldenCase{"allreduce-inplace", collAllreduce, sz.name, sz.reduce, datatype.Float64, true},
			collGoldenCase{"gather", collGather, sz.name, sz.blockLen, datatype.Byte, false},
			collGoldenCase{"allgather", collAllgather, sz.name, sz.blockLen, datatype.Byte, false},
			collGoldenCase{"alltoall", collAlltoall, sz.name, sz.blockLen, datatype.Byte, false},
		)
	}
	return append(cases,
		collGoldenCase{"bcast-vector", collBcast, "eager", 8 << 10, vec, false},
		collGoldenCase{"allreduce-vector", collAllreduce, "eager", 8 << 10, vec, false},
	)
}

// collGoldenRun runs one golden case forced to alg and returns its record:
// the dump's FNV, the virtual end and the results' FNV.
func collGoldenRun(t *testing.T, nodes, ppn int, alg CollAlg, gc collGoldenCase) string {
	t.Helper()
	cfg := DefaultConfig(nodes, ppn)
	cfg.Protocol.Coll = alg
	rec := flight.New(1 << 14)
	cfg.Flight = rec
	size := nodes * ppn
	results := make([][]byte, size)
	// count elements of gc.dt make gc.bytes of payload; a derived type's
	// instances sit an extent apart.
	count := gc.bytes / int(gc.dt.Size())
	span := int(gc.dt.LB() + gc.dt.Span(count))
	end := Run(cfg, func(c *Comm) {
		me := c.Rank()
		pattern := func(n, salt int) []byte {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(i*31 + salt*17 + 7)
			}
			if gc.dt == datatype.Float64 {
				// Small integral values: every summation order agrees.
				for i := 0; i < n/8; i++ {
					copy(b[8*i:], Float64Bytes([]float64{float64((i*13 + salt*7) % 101)}))
				}
			}
			return b
		}
		var out []byte
		var err error
		switch gc.kind {
		case collBarrier:
			err = c.Barrier()
		case collBcast:
			out = make([]byte, span)
			if me == 1%size {
				out = pattern(span, 0)
			}
			err = c.Bcast(out, count, gc.dt, 1%size)
		case collReduce:
			send := pattern(span, me)
			out = make([]byte, span)
			err = c.Reduce(send, out, count, gc.dt, OpSum, 0)
		case collAllreduce:
			send := pattern(span, me)
			out = make([]byte, span)
			if gc.inPlace {
				out = send
			}
			err = c.Allreduce(send, out, count, gc.dt, OpSum)
		case collGather:
			out = make([]byte, size*span)
			err = c.Gather(pattern(span, me), count, gc.dt, out, 0)
		case collAllgather:
			out = make([]byte, size*span)
			err = c.Allgather(pattern(span, me), count, gc.dt, out)
		case collAlltoall:
			out = make([]byte, size*span)
			err = c.Alltoall(pattern(size*span, me), count, gc.dt, out)
		}
		if err != nil {
			t.Errorf("%s on %d×%d under %s: rank %d: %v", gc.name, nodes, ppn, alg, me, err)
		}
		results[me] = out
	})
	dump := rec.Snapshot("")
	for _, a := range dump.Actors {
		if a.Dropped > 0 {
			t.Fatalf("%s on %d×%d under %s: ring %s dropped %d events", gc.name, nodes, ppn, alg, a.Actor, a.Dropped)
		}
	}
	var buf bytes.Buffer
	if err := dump.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	r := fnv.New64a()
	r.Write(slices.Concat(results...))
	return fmt.Sprintf("%016x %d %016x", h.Sum64(), int64(end), r.Sum64())
}

// collFlightGolden is the table of TestCollFlightGolden: dump FNV, virtual
// end in ns and result FNV per shape/case/family/size.
var collFlightGolden = map[string]string{
	"2x1/barrier/p2p/-":                    "5522af4d21c2bb20 3622 cbf29ce484222325",
	"2x1/bcast/p2p/short":                  "645dfc129f4888de 3570 adbfcdb895395725",
	"2x1/bcast/onesided/short":             "f30cf60f42df664a 9211 adbfcdb895395725",
	"2x1/reduce/p2p/short":                 "d37b52a87ac92962 3570 4e4bc0403ae8be69",
	"2x1/allreduce/p2p/short":              "f8af14db957af48e 7140 3087f40a33228fa5",
	"2x1/allreduce/recdbl/short":           "d916087b2d7b7588 3820 3087f40a33228fa5",
	"2x1/allreduce/ring/short":             "3c9e67a4aa49a11a 7552 3087f40a33228fa5",
	"2x1/allreduce/onesided/short":         "9d7ec103d65221e9 16020 3087f40a33228fa5",
	"2x1/allreduce-inplace/p2p/short":      "f8af14db957af48e 7140 3087f40a33228fa5",
	"2x1/allreduce-inplace/recdbl/short":   "d916087b2d7b7588 3820 3087f40a33228fa5",
	"2x1/allreduce-inplace/ring/short":     "3c9e67a4aa49a11a 7552 3087f40a33228fa5",
	"2x1/allreduce-inplace/onesided/short": "9d7ec103d65221e9 16020 3087f40a33228fa5",
	"2x1/gather/p2p/short":                 "b515b9141483feaf 3570 78f4b27a92866605",
	"2x1/allgather/p2p/short":              "926db373a449bb78 3820 69b56e6abcd75e65",
	"2x1/allgather/onesided/short":         "45f6e0080fdc1c1e 9211 69b56e6abcd75e65",
	"2x1/alltoall/p2p/short":               "f6c3646d4d5c95c0 3820 09e18e7343a73be5",
	"2x1/alltoall/onesided/short":          "45f6e0080fdc1c1e 9211 09e18e7343a73be5",
	"2x1/bcast/p2p/eager":                  "bbc0ea5fe7232dd2 28805 69b55a22caa2a325",
	"2x1/bcast/onesided/eager":             "4a41c35f298083ba 29055 69b55a22caa2a325",
	"2x1/reduce/p2p/eager":                 "fd0f8f3d6e450596 28805 4dfdcadd60c2b4e4",
	"2x1/allreduce/p2p/eager":              "c42210fe962057f6 54810 21a160486d76dba5",
	"2x1/allreduce/recdbl/eager":           "3cc1aa15f660e9e6 29055 21a160486d76dba5",
	"2x1/allreduce/ring/eager":             "de57e942f9272676 35388 21a160486d76dba5",
	"2x1/allreduce/onesided/eager":         "60446038d78d4377 35388 21a160486d76dba5",
	"2x1/allreduce-inplace/p2p/eager":      "c42210fe962057f6 54810 21a160486d76dba5",
	"2x1/allreduce-inplace/recdbl/eager":   "3cc1aa15f660e9e6 29055 21a160486d76dba5",
	"2x1/allreduce-inplace/ring/eager":     "de57e942f9272676 35388 21a160486d76dba5",
	"2x1/allreduce-inplace/onesided/eager": "60446038d78d4377 35388 21a160486d76dba5",
	"2x1/gather/p2p/eager":                 "eb87c965f9f16271 28805 b8743194a7c6f325",
	"2x1/allgather/p2p/eager":              "ba3425b2cf863d44 29055 c8ac472fdb06c325",
	"2x1/allgather/onesided/eager":         "d3f5b4c10b565782 29055 c8ac472fdb06c325",
	"2x1/alltoall/p2p/eager":               "f9da8ace3f8edf60 29055 c8ac472fdb06c325",
	"2x1/alltoall/onesided/eager":          "d3f5b4c10b565782 29055 c8ac472fdb06c325",
	"2x1/bcast/p2p/rdv":                    "a8cb8353bffaad0e 1827357 bfe5c608ebc7a325",
	"2x1/bcast/onesided/rdv":               "ffccbad380a20f6d 1399618 bfe5c608ebc7a325",
	"2x1/reduce/p2p/rdv":                   "f744bdb68c45802b 1216127 062877e696ffbbb6",
	"2x1/allreduce/p2p/rdv":                "1446bc585060ae41 2429954 251cce6ae97cb825",
	"2x1/allreduce/recdbl/rdv":             "e6899b71b898ceb3 1216377 251cce6ae97cb825",
	"2x1/allreduce/ring/rdv":               "d57a4202a939ceb3 1311018 251cce6ae97cb825",
	"2x1/allreduce/onesided/rdv":           "bcbdf4e5576e2d3f 1740923 251cce6ae97cb825",
	"2x1/allreduce-inplace/p2p/rdv":        "1446bc585060ae41 2429954 251cce6ae97cb825",
	"2x1/allreduce-inplace/recdbl/rdv":     "e6899b71b898ceb3 1216377 251cce6ae97cb825",
	"2x1/allreduce-inplace/ring/rdv":       "d57a4202a939ceb3 1311018 251cce6ae97cb825",
	"2x1/allreduce-inplace/onesided/rdv":   "bcbdf4e5576e2d3f 1740923 251cce6ae97cb825",
	"2x1/gather/p2p/rdv":                   "95059a60b8faac10 194976 47b47a691148a325",
	"2x1/allgather/p2p/rdv":                "4d3d7befce41fb6e 195226 80750e8f5b472325",
	"2x1/allgather/onesided/rdv":           "a8d19ac333d5b056 199167 80750e8f5b472325",
	"2x1/alltoall/p2p/rdv":                 "d61b3beade02ed32 195226 80750e8f5b472325",
	"2x1/alltoall/onesided/rdv":            "a8d19ac333d5b056 199167 80750e8f5b472325",
	"2x1/bcast-vector/p2p/eager":           "a0d74bf22cebc48d 494113 7295810b8297dd25",
	"2x1/bcast-vector/onesided/eager":      "76753e9c213c21a3 175585 7295810b8297dd25",
	"2x1/allreduce-vector/p2p/eager":       "a59f285ed4fc6b7d 218757 ac38c1ab276d0725",
	"2x1/allreduce-vector/recdbl/eager":    "8f5ef4292310e160 173080 ac38c1ab276d0725",
	"2x1/allreduce-vector/ring/eager":      "bad63b6cb2c1816e 174294 ac38c1ab276d0725",
	"2x1/allreduce-vector/onesided/eager":  "65adf845e6c089dd 177094 ac38c1ab276d0725",
	"3x1/barrier/p2p/-":                    "4910fd3a804ddc84 7244 cbf29ce484222325",
	"3x1/bcast/p2p/short":                  "a047d8b372ce4af7 4275 0cb86fe4f62eb125",
	"3x1/bcast/onesided/short":             "1c43abb1f0018491 12185 0cb86fe4f62eb125",
	"3x1/reduce/p2p/short":                 "4a40ea5549fc5191 4635 6af73a879e2f4736",
	"3x1/allreduce/p2p/short":              "d2a5481b1f8c894b 8910 ddcd04e64350e876",
	"3x1/allreduce/recdbl/short":           "f4ff2e4bcc744ce2 8205 ddcd04e64350e876",
	"3x1/allreduce/ring/short":             "bc5e61a6f4638cf7 15104 ddcd04e64350e876",
	"3x1/allreduce/onesided/short":         "a4f418200912c3c8 30740 ddcd04e64350e876",
	"3x1/allreduce-inplace/p2p/short":      "d2a5481b1f8c894b 8910 ddcd04e64350e876",
	"3x1/allreduce-inplace/recdbl/short":   "f4ff2e4bcc744ce2 8205 ddcd04e64350e876",
	"3x1/allreduce-inplace/ring/short":     "bc5e61a6f4638cf7 15104 ddcd04e64350e876",
	"3x1/allreduce-inplace/onesided/short": "a4f418200912c3c8 30740 ddcd04e64350e876",
	"3x1/gather/p2p/short":                 "35d1756c407511aa 4135 0b91953c0dd41945",
	"3x1/allgather/p2p/short":              "5a35184b05ccf8bd 7640 0406ccc3191f6a05",
	"3x1/allgather/onesided/short":         "4f287d94130f8c8c 12185 0406ccc3191f6a05",
	"3x1/alltoall/p2p/short":               "5c8a5f9bea927c05 7640 819945f53fd25d85",
	"3x1/alltoall/onesided/short":          "4f287d94130f8c8c 12185 819945f53fd25d85",
	"3x1/bcast/p2p/eager":                  "b3a1bf8f3bc52d6e 49073 f4cf922005e2e325",
	"3x1/bcast/onesided/eager":             "bee1df2791aacded 49323 f4cf922005e2e325",
	"3x1/reduce/p2p/eager":                 "e3081545db037464 50069 8af23d920875fcc1",
	"3x1/allreduce/p2p/eager":              "0e8b045ef6503ab1 96342 8a1853541f38baa1",
	"3x1/allreduce/recdbl/eager":           "a662ea533b2f7a91 95350 8a1853541f38baa1",
	"3x1/allreduce/ring/eager":             "6f28239fd095ad9a 54748 8a1853541f38baa1",
	"3x1/allreduce/onesided/eager":         "5e4b55fd8e3d4b3a 56248 8a1853541f38baa1",
	"3x1/allreduce-inplace/p2p/eager":      "0e8b045ef6503ab1 96342 8a1853541f38baa1",
	"3x1/allreduce-inplace/recdbl/eager":   "a662ea533b2f7a91 95350 8a1853541f38baa1",
	"3x1/allreduce-inplace/ring/eager":     "6f28239fd095ad9a 54748 8a1853541f38baa1",
	"3x1/allreduce-inplace/onesided/eager": "5e4b55fd8e3d4b3a 56248 8a1853541f38baa1",
	"3x1/gather/p2p/eager":                 "a6a03086be4c7efb 49569 1861f3f030e07325",
	"3x1/allgather/p2p/eager":              "0a13141bad96acf5 55310 9736a657f0969325",
	"3x1/allgather/onesided/eager":         "f9653bd51bd80c40 51253 9736a657f0969325",
	"3x1/alltoall/p2p/eager":               "3193fec558347923 55353 9736a657f0969325",
	"3x1/alltoall/onesided/eager":          "f9653bd51bd80c40 51253 9736a657f0969325",
	"3x1/bcast/p2p/rdv":                    "5e3453551c91a298 3654714 faf94318779a6325",
	"3x1/bcast/onesided/rdv":               "07fd62f8b9935cf6 2699678 faf94318779a6325",
	"3x1/reduce/p2p/rdv":                   "40394b4927f18c1d 2426832 236b6cca9395dbac",
	"3x1/allreduce/p2p/rdv":                "2cccfd036f77babc 4856786 3085c6ffccd92bec",
	"3x1/allreduce/recdbl/rdv":             "6bd8ef2eef9907ad 3645835 3085c6ffccd92bec",
	"3x1/allreduce/ring/rdv":               "320ba0550cbc2f35 1662861 3085c6ffccd92bec",
	"3x1/allreduce/onesided/rdv":           "7c3788fc7470c51c 2330772 3085c6ffccd92bec",
	"3x1/allreduce-inplace/p2p/rdv":        "2cccfd036f77babc 4856786 3085c6ffccd92bec",
	"3x1/allreduce-inplace/recdbl/rdv":     "6bd8ef2eef9907ad 3645835 3085c6ffccd92bec",
	"3x1/allreduce-inplace/ring/rdv":       "320ba0550cbc2f35 1662861 3085c6ffccd92bec",
	"3x1/allreduce-inplace/onesided/rdv":   "7c3788fc7470c51c 2330772 3085c6ffccd92bec",
	"3x1/gather/p2p/rdv":                   "0da119ec6695f719 374854 2badda20ba14a325",
	"3x1/allgather/p2p/rdv":                "53c5f25e9d907aa2 390452 ad4ef618f7c5a325",
	"3x1/allgather/onesided/rdv":           "c92992fecbafa4d8 391798 ad4ef618f7c5a325",
	"3x1/alltoall/p2p/rdv":                 "266a281572c9249e 390816 ad4ef618f7c5a325",
	"3x1/alltoall/onesided/rdv":            "c92992fecbafa4d8 391798 ad4ef618f7c5a325",
	"3x1/bcast-vector/p2p/eager":           "dffa9046535b638a 757043 5758c7fd7e4ab325",
	"3x1/bcast-vector/onesided/eager":      "bbc23714032b981a 213215 5758c7fd7e4ab325",
	"3x1/allreduce-vector/p2p/eager":       "e0c82e2aad8b2404 302692 42ac42fe5143fd25",
	"3x1/allreduce-vector/recdbl/eager":    "f6fb3d03617efe40 301700 42ac42fe5143fd25",
	"3x1/allreduce-vector/ring/eager":      "a368a787968c433b 200348 42ac42fe5143fd25",
	"3x1/allreduce-vector/onesided/eager":  "af4077181c8ebc7f 204648 42ac42fe5143fd25",
	"4x2/barrier/p2p/-":                    "dfe092a60908e3b6 10866 cbf29ce484222325",
	"4x2/bcast/p2p/short":                  "d2169fd5f1bdaa03 10710 e1003514601af325",
	"4x2/bcast/onesided/short":             "4f25a564e7d5ecca 22033 e1003514601af325",
	"4x2/reduce/p2p/short":                 "e13b6456aff99b82 8480 6c5840cf9573019f",
	"4x2/allreduce/p2p/short":              "2c6ce7eb9cd31088 16960 1357fc65e2c67125",
	"4x2/allreduce/recdbl/short":           "85f8b4f8b96eac26 9230 1357fc65e2c67125",
	"4x2/allreduce/ring/short":             "06f3b05307b99a6e 37492 1357fc65e2c67125",
	"4x2/allreduce/onesided/short":         "00828fb92cbadddb 73038 1357fc65e2c67125",
	"4x2/allreduce-inplace/p2p/short":      "2c6ce7eb9cd31088 16960 1357fc65e2c67125",
	"4x2/allreduce-inplace/recdbl/short":   "85f8b4f8b96eac26 9230 1357fc65e2c67125",
	"4x2/allreduce-inplace/ring/short":     "06f3b05307b99a6e 37492 1357fc65e2c67125",
	"4x2/allreduce-inplace/onesided/short": "00828fb92cbadddb 73038 1357fc65e2c67125",
	"4x2/gather/p2p/short":                 "5d4fc58d1b2bf064 7705 9396e1fd573a2fc5",
	"4x2/allgather/p2p/short":              "98db5dcdd683a696 20050 e6657402447c4625",
	"4x2/allgather/onesided/short":         "96af6acbbd69b494 33917 e6657402447c4625",
	"4x2/alltoall/p2p/short":               "c8e05e295f2da0d0 26740 fd9e5c95237eae25",
	"4x2/alltoall/onesided/short":          "96af6acbbd69b494 33917 fd9e5c95237eae25",
	"4x2/bcast/p2p/eager":                  "dd71e59042315539 80818 99fbc7bf1e242325",
	"4x2/bcast/onesided/eager":             "8d04cacf5736db59 81567 99fbc7bf1e242325",
	"4x2/reduce/p2p/eager":                 "efadcec215632797 61310 a3fdc11a5fd15f8f",
	"4x2/allreduce/p2p/eager":              "f12613001ea1c209 117920 d87d38a0c37a3e65",
	"4x2/allreduce/recdbl/eager":           "3331409581aae95e 108840 d87d38a0c37a3e65",
	"4x2/allreduce/ring/eager":             "a09acf6488d118ea 83515 d87d38a0c37a3e65",
	"4x2/allreduce/onesided/eager":         "28d89d9a16b0aeaf 105315 d87d38a0c37a3e65",
	"4x2/allreduce-inplace/p2p/eager":      "f12613001ea1c209 117920 d87d38a0c37a3e65",
	"4x2/allreduce-inplace/recdbl/eager":   "3331409581aae95e 108840 d87d38a0c37a3e65",
	"4x2/allreduce-inplace/ring/eager":     "a09acf6488d118ea 83515 d87d38a0c37a3e65",
	"4x2/allreduce-inplace/onesided/eager": "28d89d9a16b0aeaf 105315 d87d38a0c37a3e65",
	"4x2/gather/p2p/eager":                 "1527f5896ab7321f 132761 d2e8da39d8044325",
	"4x2/allgather/p2p/eager":              "298fd590af72abe6 152163 d5dd249c77032325",
	"4x2/allgather/onesided/eager":         "dd084f4abb50c784 298608 d5dd249c77032325",
	"4x2/alltoall/p2p/eager":               "e685959ac446dddc 283068 d5dd249c77032325",
	"4x2/alltoall/onesided/eager":          "dd084f4abb50c784 298608 d5dd249c77032325",
	"4x2/bcast/p2p/rdv":                    "4e47d602c8581b3d 5482094 b2a5a94ba2b82325",
	"4x2/bcast/onesided/rdv":               "b3e6701c52d0873b 4627354 b2a5a94ba2b82325",
	"4x2/reduce/p2p/rdv":                   "bd6325b8aeecdc55 3335984 a62dcd2e13390803",
	"4x2/allreduce/p2p/rdv":                "1480a2e2cbee2390 6673345 dac949062176ba25",
	"4x2/allreduce/recdbl/rdv":             "756623e15ea44695 7649004 dac949062176ba25",
	"4x2/allreduce/ring/rdv":               "cc3c821787068ec5 2733164 dac949062176ba25",
	"4x2/allreduce/onesided/rdv":           "a4cf52276fa569fd 3606652 dac949062176ba25",
	"4x2/allreduce-inplace/p2p/rdv":        "1480a2e2cbee2390 6673345 dac949062176ba25",
	"4x2/allreduce-inplace/recdbl/rdv":     "756623e15ea44695 7649004 dac949062176ba25",
	"4x2/allreduce-inplace/ring/rdv":       "cc3c821787068ec5 2733164 dac949062176ba25",
	"4x2/allreduce-inplace/onesided/rdv":   "a4cf52276fa569fd 3606652 dac949062176ba25",
	"4x2/gather/p2p/rdv":                   "cd94fa3a186bd685 1092879 630aaf0c03332325",
	"4x2/allgather/p2p/rdv":                "3e5bf6d35c3eda0b 1366582 6184a2831b2a2325",
	"4x2/allgather/onesided/rdv":           "9534811fb38ad3b6 2923403 6184a2831b2a2325",
	"4x2/alltoall/p2p/rdv":                 "7a266deaf36bcb11 2442115 6184a2831b2a2325",
	"4x2/alltoall/onesided/rdv":            "9534811fb38ad3b6 2923403 6184a2831b2a2325",
	"4x2/bcast-vector/p2p/eager":           "50ae1864b5339f3a 1502429 d212f079bcb4e125",
	"4x2/bcast-vector/onesided/eager":      "3d4008f8a933c401 291714 d212f079bcb4e125",
	"4x2/allreduce-vector/p2p/eager":       "3fab5fa7cba877ca 389653 0450091255874325",
	"4x2/allreduce-vector/recdbl/eager":    "f3e3f7f3dd158992 394372 0450091255874325",
	"4x2/allreduce-vector/ring/eager":      "cf60f3a8d45e395a 246648 0450091255874325",
	"4x2/allreduce-vector/onesided/eager":  "34fc5034a2972487 278711 0450091255874325",
}
