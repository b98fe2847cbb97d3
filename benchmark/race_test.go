//go:build race

package main

// raceBuild: the race detector slows this process's stacks several times
// over and leaves the spawned hdld alone, so the ladder's timing check
// cannot hold.
const raceBuild = true
