package obs

// spawnStack is the stack every goroutine Go spawns starts its function
// on: 16 KB, the largest stack size the runtime caches per P on
// linux/amd64, so taking it and freeing it at exit never touch the global
// stack lock. A whole cascade run fits in it.
const spawnStack = 16 << 10

// stackFrame is growStack's frame (12 KB): more than half of spawnStack,
// so the runtime's doubling from 2 KB cannot stop short of it, and small
// enough that it, the spawned closure's frames and the stack guard (twice
// as large under -race) still fit in spawnStack.
const stackFrame = spawnStack * 3 / 4

// stackSink keeps growStack's frame from being optimized away. It is
// only ever written with a byte of a zeroed frame, so it stays 0 and the
// branch that touches the frame never runs.
var stackSink byte

// growStack grows the calling goroutine's stack to spawnStack in one
// step. Its prologue asks for a stackFrame-sized frame, and the runtime's
// newstack doubles the stack until that frame fits: at depth two, with
// almost nothing above it to copy. The frame itself is neither zeroed nor
// read unless stackSink is non-zero, which it never is, so a call costs a
// compare and a return once the stack is grown.
//
//go:noinline
func growStack() {
	if stackSink != 0 {
		var frame [stackFrame]byte
		stackSink = frame[stackSink]
	}
}

// Go is the serving path's managed goroutine spawn: it runs fn on a new
// goroutine with panic containment. A panic in fn is recovered — the
// process stays up, and the event is counted on reg's
// goroutine_panics_total{task=...} counter so dashboards surface it
// instead of a crash log — the series is looked up only then, so a spawn
// that does not panic never touches the registry. Deferred calls inside
// fn (waitgroup Done, cancel funcs) still run during the unwind before
// the recovery fires.
//
// fn starts on a spawnStack (16 KB) stack rather than the runtime's
// 2 KB. A goroutine's stack grows by copying: every frame on it is moved
// and its pointers adjusted through the frame's pointer maps, so a
// growth deep in a call chain costs in proportion to that chain. The
// pump that runs a cascade outgrew a 2 KB start two or three times, each
// time about fifteen frames down, inside the tier call and the breaker
// pick; on churn_write, where every request runs the cascade, that was
// 3.5 % of all CPU samples (runtime.newstack, 90 % of it copystack).
// Grown here, at depth two, the one growth copies almost nothing: on a
// 2-vCPU x86-64 box a spawn whose function needs ~9 KB of stack went from
// 4.7–5.4 to 1.5–1.9 µs, while one that needs none pays ~0.6 µs for the
// growth it did not need.
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
		growStack()
		fn()
	}()
}
