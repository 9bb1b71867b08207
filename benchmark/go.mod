module armus/benchmark

go 1.24

require armus v0.0.0

replace armus => ../
