package lib

// Unread has no reader.
func Unread() {}

// TestOnly is read only by a test.
func TestOnly() {}

// OwnFile is read only in this file.
var OwnFile = 1

func ownFile() int { return OwnFile }

// BenchRead is read only from bench/.
func BenchRead() {}

// Used is read from cmd/ through an import alias.
const Used = 2

// Sibling is read by another file of its package.
func Sibling() {}

type T struct{}

func (T) String() string { return "" } // read by fmt
func (T) Called()        {}
func (T) TestOnly()      {}
func (T) Len() int       { return 0 } // only sort.Interface's three are exempt

type byLen []string

func (s byLen) Len() int           { return len(s) }
func (s byLen) Less(i, j int) bool { return len(s[i]) < len(s[j]) }
func (s byLen) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
