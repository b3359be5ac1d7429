// Command aero-server runs a standalone AERO metadata server over HTTP.
// Platforms point at it with osprey.Config.Meta = aero.NewClient(url),
// keeping the paper's separation between the central metadata service and
// the user-owned storage and compute where data actually lives.
//
// Usage:
//
//	aero-server [-addr 127.0.0.1:7523]
//	            [-data-dir DIR] [-fsync always|interval|never]
//	            [-auth tokens.json] [-quota 50 -quota-burst 10]
//
// -auth enables multi-tenant mode: requests must carry a bearer token
// from the JSON token file and each tenant sees only its own namespace.
// -quota adds per-tenant token-bucket admission on the mutation routes
// (429 + Retry-After on pushback).
//
// -data-dir makes the store durable through a write-ahead log: every
// mutation is persisted before it is applied, restarts replay the log
// (tolerating a torn tail), and POST /admin/compact (`ospreyctl compact`)
// snapshots the store and truncates the log. Without it the store lives in
// memory only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"osprey/internal/aero"
	"osprey/internal/globus"
	"osprey/internal/wal"
)

// loadAuth reads the static token file and builds the validator: each
// entry maps a bearer token to its tenant namespace, scoped to the AERO
// API. The format is deliberately minimal — operators needing real
// credential flows front the server with their identity provider.
func loadAuth(path string) (*globus.Auth, int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var entries []struct {
		Token  string `json:"token"`
		Tenant string `json:"tenant"`
	}
	if err := json.Unmarshal(b, &entries); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	auth := globus.NewAuth()
	for i, e := range entries {
		if e.Token == "" || e.Tenant == "" {
			return nil, 0, fmt.Errorf("%s: entry %d needs both token and tenant", path, i)
		}
		if err := auth.RegisterToken(&globus.Token{
			ID:       e.Token,
			Identity: e.Tenant,
			Scopes:   map[globus.Scope]bool{globus.ScopeAero: true},
		}); err != nil {
			return nil, 0, fmt.Errorf("%s: entry %d: %w", path, i, err)
		}
	}
	return auth, len(entries), nil
}

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("aero-server: ")
	var (
		addr       = flag.String("addr", "127.0.0.1:7523", "listen address")
		dataDir    = flag.String("data-dir", "", "enable WAL persistence under this directory")
		fsyncMode  = flag.String("fsync", "always", "WAL fsync policy: always|interval|never")
		authFile   = flag.String("auth", "", `enable multi-tenant bearer auth: JSON token file like [{"token":"t-1","tenant":"alice"}]`)
		quotaRate  = flag.Float64("quota", 0, "per-tenant mutation quota in req/s (0 = unlimited; needs -auth)")
		quotaBurst = flag.Float64("quota-burst", 10, "per-tenant quota token-bucket burst")
	)
	flag.Parse()

	var store *aero.Store
	var walLog *wal.Log
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		walLog, err = wal.Open(*dataDir, wal.Options{Name: "wal.aero", Policy: policy, Logf: log.Printf})
		if err != nil {
			log.Fatal(err)
		}
		store, err = aero.OpenStore(walLog)
		if err != nil {
			log.Fatalf("recover store: %v", err)
		}
		data, _ := store.ListData()
		log.Printf("recovered %d data records from %s in %s", len(data), *dataDir, time.Since(start).Round(time.Millisecond))
	} else {
		store = aero.NewStore()
	}

	handler := aero.NewServer(store)
	if walLog != nil {
		handler.SetCompact(store.Compact)
	}
	if *authFile != "" {
		auth, tenants, err := loadAuth(*authFile)
		if err != nil {
			log.Fatalf("auth: %v", err)
		}
		handler.SetAuth(auth)
		log.Printf("bearer auth enabled: %d tokens", tenants)
		if *quotaRate > 0 {
			q := aero.NewQuotas()
			lim := aero.QuotaLimit{Rate: *quotaRate, Burst: *quotaBurst}
			q.SetLimit(aero.QuotaIngest, lim)
			q.SetLimit(aero.QuotaAnalysis, lim)
			handler.SetQuotas(q)
			log.Printf("per-tenant quotas enabled: %.1f req/s, burst %.0f", *quotaRate, *quotaBurst)
		}
	} else if *quotaRate > 0 {
		log.Fatal("-quota requires -auth (quotas are per tenant)")
	}
	srv := &http.Server{Addr: *addr, Handler: handler}
	go func() {
		log.Printf("metadata service listening on http://%s", *addr)
		if err := srv.ListenAndServe(); err != http.ErrServerClosed {
			log.Fatalf("serve: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	log.Print("shutting down")
	if walLog != nil {
		if err := store.Compact(); err != nil {
			log.Printf("compact: %v", err)
		}
		_ = walLog.Close()
	}
	_ = srv.Close()
}
