module pace/bench

go 1.22

require pace v0.0.0

replace pace => ../
