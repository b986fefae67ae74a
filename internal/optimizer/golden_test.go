package optimizer

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// TestRankingsGolden pins every paper-flow ranking bit for bit: flow ×
// budget {0, 64 KiB} × profile {unmeasured, TCP-like} × DOP {2, 4}, each
// line the SHA-256 of rankingFingerprint (every plan's key and cost bits, in
// rank order) beside the rank-1 entry. The reference comparison tolerates
// 1e-9; this does not, so a reordered float sum or a changed tie-break shows
// here first.
func TestRankingsGolden(t *testing.T) {
	var b strings.Builder
	for _, pf := range paperFlows(t) {
		for _, budget := range []float64{0, 64 << 10} {
			for _, net := range []NetProfile{{}, tcpLike} {
				for _, dop := range []int{2, 4} {
					ranked := RankAllNet(mustTree(t, pf.flow), NewEstimator(pf.flow), dop, budget, net)
					fp := rankingFingerprint(ranked)
					fmt.Fprintf(&b, "%s budget=%g net=%g/%g dop=%d plans=%d sha256=%x best=%s\n",
						pf.name, budget, net.BytesPerSec, net.LatencySec, dop, len(ranked),
						sha256.Sum256([]byte(fp)), fp[:strings.IndexByte(fp, ';')])
				}
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "rankings.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d ranking lines, fixture has %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("ranking diverges from the fixture\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}
