package jobs

import "blackboxflow/internal/record"

// The package's tests run with released frame slabs poisoned, so a slab
// given back while a record still points into it fails the service
// harness's remote and mixed placements instead of passing on whatever the
// next frame happened to write.
func init() { record.PoisonReleasedSlabs(true) }
