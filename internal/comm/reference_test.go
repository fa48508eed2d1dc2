package comm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"switchqnet/internal/circuit"
	"switchqnet/internal/place"
	"switchqnet/internal/topology"
)

// referenceDigests are SHA-256 digests of the demand lists the
// map-based extractor produced over referenceGrid, one per bench. The
// slice-indexed extractor must reproduce them exactly.
var referenceDigests = map[string]string{
	"mct":    "c9fd9cc5c72240209fc905377a47ecb57e8e827e61f7869649307b102d514c33",
	"qft":    "2593b24d325173319c1e6c1595b41a7f372db392d1685ec62680770aee50353a",
	"grover": "dd5aed421b2a7058d53052c98976f615a8c92ec2230fccffd0e8bc873e007ce7",
	"rca":    "e36e3dedd5b9a99ca1668239d963c6eeb8e30a7ebef4116e4b1ef3e3887e438f",
	"ghz":    "ce7fe206f0db59f01143fe41c519c1191482852f493dab19e8d658f33a546e6e",
	"bv":     "9f400eb98611e5d17e69b476e05791b2aee81837ebbd979eff7561eb8e8a223b",
}

// referenceOptions are the four extraction modes: the evaluation
// default, each of TP migration and Cat aggregation switched off, and
// the on-demand baseline with both off.
func referenceOptions() []Options {
	noTP := DefaultOptions()
	noTP.DisableTP = true
	noCat := DefaultOptions()
	noCat.DisableCatAggregation = true
	return []Options{DefaultOptions(), noTP, noCat, BaselineOptions()}
}

// TestExtractMatchesReference pins Extract's output over every bench ×
// topology × rack count × QPU width × option set of the grid below.
func TestExtractMatchesReference(t *testing.T) {
	topos := []string{"clos", "spine-leaf", "fat-tree"}
	for bench, want := range referenceDigests {
		h := sha256.New()
		var buf []byte
		circs := map[int]*circuit.Circuit{}
		for _, topo := range topos {
			for _, racks := range []int{2, 4, 6, 8} {
				for _, dq := range []int{12, 30} {
					arch, err := topology.NewArch(topo, racks, 2, dq, dq/3, 2)
					if err != nil {
						t.Fatal(err)
					}
					n := arch.TotalQubits()
					c := circs[n]
					if c == nil {
						if c, err = circuit.Benchmark(bench, n); err != nil {
							t.Fatal(err)
						}
						circs[n] = c
					}
					p, err := place.Blocks(c.NumQubits, arch)
					if err != nil {
						t.Fatal(err)
					}
					for oi, o := range referenceOptions() {
						ds, err := Extract(c, p, arch, o)
						if err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(h, "%s/%d/%d/%d: %d\n", topo, racks, dq, oi, len(ds))
						buf = buf[:0]
						for _, d := range ds {
							buf = binary.AppendUvarint(buf, uint64(d.ID))
							buf = binary.AppendUvarint(buf, uint64(d.A))
							buf = binary.AppendUvarint(buf, uint64(d.B))
							buf = binary.AppendUvarint(buf, uint64(d.Protocol))
							if d.CrossRack {
								buf = append(buf, 1)
							} else {
								buf = append(buf, 0)
							}
							buf = binary.AppendUvarint(buf, uint64(d.Gates))
							buf = binary.AppendUvarint(buf, uint64(d.Block))
						}
						h.Write(buf)
					}
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s: demand digest %s, want %s", bench, got, want)
		}
	}
}
