package data

// Exported for the external tests in libsvm_storage_test.go, which build
// tables and so cannot live in package data.
var (
	ReadLIBSVMRef = readLIBSVMRef
	LIBSVMFile    = libsvmFile
)
