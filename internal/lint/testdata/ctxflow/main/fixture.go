// Command main is the other half of the ctxflow fixture: a command's main
// package is where context roots are made, so nothing here is a finding.
package main

import "context"

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run(ctx)
}

func run(ctx context.Context) {
	_ = ctx
	_ = context.TODO()
}
