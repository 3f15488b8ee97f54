module scimpich/benchmark

go 1.24

require scimpich v0.0.0

replace scimpich => ../
