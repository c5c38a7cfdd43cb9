package lib

func sibling() { Sibling() }
