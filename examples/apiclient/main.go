// API client: the versioned service surface end-to-end — an in-process
// ivrserve-style backend on a loopback port, driven entirely through
// the typed /api/v1 Go SDK (internal/client). This is the integration
// every front-end in the paper's framework proposal shares: create a
// profiled session, search with pagination, feed implicit evidence
// back, and watch the next ranking adapt.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro"
	"repro/internal/client"
	"repro/internal/ilog"
	"repro/internal/webapi"
)

func main() {
	// 1. Backend: an adaptive system over a tiny synthetic archive,
	//    served on a random loopback port (exactly what `ivrserve`
	//    does, minus the flags).
	arch, err := repro.GenerateArchive(repro.TinyArchive(), 5)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := repro.NewAdaptiveSystem(arch, repro.Combined())
	if err != nil {
		log.Fatal(err)
	}
	srv, err := webapi.NewServer(sys, webapi.WithSessionTTL(10*time.Minute))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	baseURL := "http://" + ln.Addr().String()
	fmt.Printf("backend: %d shots served at %s/api/v1\n\n", arch.Collection.NumShots(), baseURL)

	// 2. Front-end: everything below goes through the typed SDK — no
	//    hand-rolled HTTP.
	c, err := client.New(baseURL,
		client.WithTimeout(10*time.Second),
		client.WithRetry(2, 100*time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Healthz(ctx); err != nil {
		log.Fatal(err)
	}

	// A viewer who registered an interest in sports.
	sessionID, err := c.CreateSession(ctx, client.CreateSessionRequest{
		UserID:    "alice",
		Interests: map[string]float64{"sports": 0.8},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session %s created for alice (sports=0.8)\n\n", sessionID[:9]+"…")

	// 3. Search a ground-truth topic, first page only.
	topic := arch.Truth.SearchTopics[0]
	fmt.Printf("query: %q\n", topic.Query)
	page, err := c.Search(ctx, client.SearchRequest{
		SessionID: sessionID, Query: topic.Query, Limit: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("page 1 of %d ranked hits (%d candidates):\n", page.Total, page.Candidates)
	for _, h := range page.Hits {
		fmt.Printf("  %2d. %-16s %.3f  [%s] %s\n", h.Rank+1, h.ShotID, h.Score, h.Category, h.Title)
	}

	// ...and the second page of the same ranking.
	page2, err := c.Search(ctx, client.SearchRequest{
		SessionID: sessionID, Query: topic.Query, Offset: 5, Limit: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("page 2: hits %d..%d of %d\n\n", page2.Offset+1, page2.Offset+len(page2.Hits), page2.Total)

	// 4. The viewer clicks and watches the top result; the interface
	//    ships the evidence as one event batch.
	top := page.Hits[0]
	shot, err := c.Shot(ctx, top.ShotID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice clicks %s and watches %.0fs of it\n", top.ShotID, shot.Seconds)
	observed, err := c.SendEvents(ctx, sessionID, []ilog.Event{
		{Action: ilog.ActionClickKeyframe, ShotID: top.ShotID, Rank: 0},
		{Action: ilog.ActionPlay, ShotID: top.ShotID, Rank: 0, Seconds: shot.Seconds},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server observed %d events\n\n", observed)

	// 5. The next iteration adapts to that evidence.
	fmt.Println("adapted ranking:")
	adapted, err := c.Search(ctx, client.SearchRequest{SessionID: sessionID, Query: topic.Query, Limit: 5})
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range adapted.Hits {
		moved := " "
		if h.ShotID == top.ShotID && h.Rank == 0 {
			moved = "*"
		}
		fmt.Printf("  %2d.%s %-16s %.3f  [%s] %s\n", h.Rank+1, moved, h.ShotID, h.Score, h.Category, h.Title)
	}
	fmt.Printf("step %d, %d ranked hits\n\n", adapted.Step, adapted.Total)

	// 6. Session state shows the accumulated evidence; then hang up.
	st, err := c.Session(ctx, sessionID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session state: step=%d evidence=%d seen=%d\n", st.Step, st.Evidence, st.SeenShots)
	if err := c.DeleteSession(ctx, sessionID); err != nil {
		log.Fatal(err)
	}
	if _, err := c.Session(ctx, sessionID); client.IsNotFound(err) {
		fmt.Println("session deleted; the server answers 404 with the error envelope")
	}
}
