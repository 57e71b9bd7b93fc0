//go:build !race

package mwfs

const raceEnabled = false
