module bandjoin/benchmark

go 1.24

require bandjoin v0.0.0

replace bandjoin => ../
