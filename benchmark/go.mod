module fedcross/benchmark

go 1.24

require fedcross v0.0.0

replace fedcross => ../
