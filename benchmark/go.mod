module predict/benchmark

go 1.24

require predict v0.0.0

replace predict => ../
