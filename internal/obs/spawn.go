package obs

// Go is the serving path's managed goroutine spawn: it runs fn on a new
// goroutine with panic containment. A panic in fn is recovered — the
// process stays up, and the event is counted on reg's
// goroutine_panics_total{task=...} counter so dashboards surface it
// instead of a crash log — the series is looked up only then, so a spawn
// that does not panic never touches the registry. Deferred calls inside
// fn (waitgroup Done, cancel funcs) still run during the unwind before
// the recovery fires.
//
// The gospawn analyzer (internal/analysis/gospawn) requires serving-path
// goroutines to either use this helper or carry their own recovery; the
// one bare spawn below is the helper's own body.
func Go(reg *Registry, task string, fn func()) {
	//llmdm:allow gospawn — this IS the managed spawn helper; recovery is installed below
	go func() {
		defer func() {
			if r := recover(); r != nil {
				reg.Counter("goroutine_panics_total", "task", task).Inc()
			}
		}()
		fn()
	}()
}
