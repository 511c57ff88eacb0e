// Quickstart: generate a small synthetic EST collection with known gene
// origins, cluster it with PaCE, and assess the result against the truth.
package main

import (
	"fmt"
	"log"

	"pace"
)

func main() {
	// 1. A benchmark of 400 ESTs sampled from 20 genes, with 2% sequencing
	//    error and unknown strand orientation.
	bench, err := pace.Simulate(pace.SimOptions{
		NumESTs:  400,
		NumGenes: 20,
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d ESTs from %d genes (first EST: %d bases)\n",
		len(bench.ESTs), bench.NumGenes, len(bench.ESTs[0]))

	// 2. Cluster with the default (paper-like) parameters.
	cl, err := pace.Cluster(bench.ESTs, pace.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clustered into %d clusters\n", cl.NumClusters)
	fmt.Printf("pairs: generated=%d processed=%d accepted=%d skipped=%d\n",
		cl.Stats.PairsGenerated, cl.Stats.PairsProcessed,
		cl.Stats.PairsAccepted, cl.Stats.PairsSkipped)

	// 3. Compare against the known correct clustering (paper §4.1).
	q, err := pace.Evaluate(cl.Labels, bench.Truth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("quality: %s\n", q)

	// 4. Peek at clusters 0–2, gathering their members from the labels.
	members := make([][]int, min(3, cl.NumClusters))
	for i, l := range cl.Labels {
		if l < len(members) {
			members[l] = append(members[l], i)
		}
	}
	for l, m := range members {
		fmt.Printf("cluster %d (%d ESTs): %v...\n", l, len(m), m[:min(8, len(m))])
	}
}
