module blackboxflow/bench

go 1.24

require blackboxflow v0.0.0

replace blackboxflow => ../
