package journal

// What the external test package (compat_repl_test.go, which imports
// internal/repl and so cannot live in this one) shares with the tests here.
var (
	ReadCompatGolden = readCompatGolden
	CopyTree         = copyTree
	DumpDigest       = dumpDigest
)
