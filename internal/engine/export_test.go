package engine

import "blackboxflow/internal/record"

// The package's tests run with released frame slabs poisoned: a slab given
// back while a record still points into it then reads a value no flow
// produces, so the differential rows that decode TCP frames — the harness's
// tcp and mixed transports, TestDistributedEquivalence and
// TestChaosTCPConnFaults among them — fail instead of passing on whatever
// the next frame happened to write.
func init() { record.PoisonReleasedSlabs(true) }
