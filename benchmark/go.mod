module corgipile/benchmark

go 1.22

require corgipile v0.0.0

replace corgipile => ../
