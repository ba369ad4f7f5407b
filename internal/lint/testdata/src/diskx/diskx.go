// Package diskx stands in for a disk-I/O package such as internal/segment:
// every call is priced blocking I/O for lockguard tests.
package diskx

func Read(off int) int { return off * 2 }
