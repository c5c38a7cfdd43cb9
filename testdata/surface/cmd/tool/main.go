package main

import l "surf/internal/lib"

func main() {
	_ = l.Used
	var t l.T
	t.Called()
}
