package engine

import (
	"context"
	"slices"
	"testing"

	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
)

// TestBroadcastShipNoAliasing is the mutation canary for the broadcast
// shipping fix: each partition must own its slice of record headers, so a
// consumer that reorders one partition in place cannot be observed by its
// siblings.
func TestBroadcastShipNoAliasing(t *testing.T) {
	e := New(3)
	var in Partitioned = Partitioned{{
		{record.Int(3)}, {record.Int(1)}, {record.Int(2)},
	}}
	ed := edge{ship: optimizer.ShipBroadcast, data: in}
	bytes, err := e.shuffle(context.Background(), e.TraceParent, &ed, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := ed.data
	if len(out) != 3 {
		t.Fatalf("broadcast produced %d partitions, want 3", len(out))
	}
	if want := 3 * record.DataSet(in[0]).TotalSize(); bytes != want {
		t.Errorf("broadcast shipped %d bytes, want %d", bytes, want)
	}
	// Reorder partition 0 in place; every other partition (and the input)
	// must keep the original order.
	slices.Reverse(out[0])
	wantOrig := []int64{3, 1, 2}
	for p := 1; p < 3; p++ {
		for i, want := range wantOrig {
			if got := out[p][i].Field(0).AsInt(); got != want {
				t.Fatalf("partition %d record %d = %d after sibling reorder, want %d (aliased slices)", p, i, got, want)
			}
		}
	}
	for i, want := range wantOrig {
		if got := in[0][i].Field(0).AsInt(); got != want {
			t.Fatalf("input record %d = %d after sibling reorder, want %d (aliased slices)", i, got, want)
		}
	}
}
