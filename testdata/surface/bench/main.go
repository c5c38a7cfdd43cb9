package main

import "surf/internal/lib"

func main() { lib.BenchRead() }
