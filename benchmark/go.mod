module github.com/tukwila/adp/benchmark

go 1.24.0

require github.com/tukwila/adp v0.0.0

replace github.com/tukwila/adp => ../
