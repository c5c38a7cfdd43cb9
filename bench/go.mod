module piccolo/bench

go 1.24

require piccolo v0.0.0

replace piccolo => ../
