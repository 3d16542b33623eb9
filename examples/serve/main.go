// Command serve starts a crcserve instance in-process and drives it with
// the Go client: a checksum, a cached evaluation (the second call
// answers from the pooled Analyzer's memo with zero new engine probes),
// a streaming evaluation with live progress, and a candidate ranking.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"

	"koopmancrc/serve"
	"koopmancrc/serve/client"
)

func main() {
	srv, err := serve.New(serve.Config{PoolSize: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(ln, srv) }()

	ctx := context.Background()
	c := client.New("http://" + ln.Addr().String())

	sum, err := c.Checksum(ctx, "CRC-32C/iSCSI", []byte("123456789"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CRC-32C(\"123456789\") = %s\n", sum.Hex)

	req := serve.EvaluateRequest{
		PolyRef: serve.PolyRef{Poly: "0xba0dc66b"},
		MaxLen:  1024, MaxHD: 6,
	}
	first, err := c.Evaluate(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("0xBA0DC66B: %d HD bands to %d bits\n", len(first.Bands), first.MaxLen)

	// Identical repeat: served from the session memo, zero engine probes.
	if _, err := c.Evaluate(ctx, req); err != nil {
		log.Fatal(err)
	}

	// Streaming variant with live progress ticks.
	ticks := 0
	if _, err := c.EvaluateStream(ctx, serve.EvaluateRequest{
		PolyRef: serve.PolyRef{Poly: "0xba0dc66b"},
		MaxLen:  2048, MaxHD: 6,
	}, func(serve.ProgressEvent) { ticks++ }); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed evaluation delivered %d progress ticks\n", ticks)

	ranked, err := c.Select(ctx, serve.SelectRequest{
		Candidates: []serve.PolyRef{{Poly: "0xba0dc66b"}, {Poly: "0x82608edb"}},
		DataLen:    1024, MaxHD: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best candidate at 1024 bits: %s (HD %d)\n",
		ranked.Ranking[0].Poly, ranked.Ranking[0].HD)
}
