module asmsim/benchmark

go 1.22

require asmsim v0.0.0

replace asmsim => ../
