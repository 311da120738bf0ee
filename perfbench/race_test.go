//go:build race

package main

// The race detector slows the tiny workloads below the thousand samples a
// p99 needs; TestWorkloadsEmitEveryMetric then accepts its absence.
func init() { raceBuild = true }
