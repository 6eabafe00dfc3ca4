// Regularization: one logistic regression at three L2 weight-decay
// strengths. TrainConfig.L2 adds L2·w to every SGD step, pulling the
// weights toward zero; SQL's TRAIN has no key for it.
//
// Run with: go run ./examples/regularization
package main

import (
	"fmt"
	"log"
	"math"

	"corgipile"
)

func main() {
	ds := corgipile.Synthetic("susy", 0.5, corgipile.OrderShuffled)
	for _, l2 := range []float64{0, 0.01, 0.1} {
		res, err := corgipile.Train(ds, corgipile.TrainConfig{Model: "lr", Epochs: 5, L2: l2})
		if err != nil {
			log.Fatal(err)
		}
		norm := 0.0
		for _, w := range res.W {
			norm += w * w
		}
		fmt.Printf("L2 %-5g final train accuracy %.3f  weight norm %.3f\n",
			l2, res.Final().TrainAcc, math.Sqrt(norm))
	}
}
