// Server: verification as a service. One armus-serve instance, two
// SEPARATE CLIENT PROCESSES (this program re-executes itself) that each
// submit half of a deadlock cycle to the same session — neither process
// can see the cycle locally, the service merges their blocked statuses
// (Def. 4.1: a status is a pure function of its task, so merging is all
// it takes) and pushes the cross-process deadlock report to both.
//
//	go run ./examples/server
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"time"

	"armus/internal/client"
	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/server"
)

func main() {
	role := flag.String("role", "", "internal: child process role (a or b)")
	addr := flag.String("addr", "", "internal: server address for child processes")
	flag.Parse()
	if *role != "" {
		child(*role, *addr)
		return
	}

	srv, err := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("armus-serve listening on", srv.Addr())

	// Two real OS processes, each its own TCP connection to the session.
	procs := make([]*exec.Cmd, 0, 2)
	for _, r := range []string{"a", "b"} {
		cmd := exec.Command(os.Args[0], "-role", r, "-addr", srv.Addr())
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		procs = append(procs, cmd)
	}
	for _, p := range procs {
		if err := p.Wait(); err != nil {
			log.Fatalf("child process: %v", err)
		}
	}
	m := srv.Metrics()
	fmt.Printf("server saw %d connections, %d events, pushed %d deadlock report(s)\n",
		m.ConnsTotal.Load(), m.Events.Load(), m.Reports.Load())
	if m.Reports.Load() == 0 {
		log.Fatal("no cross-client deadlock was reported")
	}
}

// child is one client process: it attaches to the shared "app" session in
// detection mode, contributes its half of the cycle, and waits for the
// service to push the deadlock report.
func child(role, addr string) {
	reports := make(chan client.Report, 1)
	c, err := client.Dial(client.Config{
		Addr:      addr,
		Session:   "app", // both processes name the same session
		Mode:      core.ModeDetect,
		Subscribe: true,
		OnReport: func(r client.Report) {
			select {
			case reports <- r:
			default:
			}
		},
	})
	if err != nil {
		log.Fatalf("process %s: %v", role, err)
	}
	defer c.Close()

	// Process a's task 1 awaits phaser 1 while still impeding phaser 2;
	// process b's task 2 awaits phaser 2 while still impeding phaser 1.
	// Each half is harmless alone; together they are a cycle.
	var b deps.Blocked
	switch role {
	case "a":
		b = deps.Blocked{Task: 1,
			WaitsFor: []deps.Resource{{Phaser: 1, Phase: 1}},
			Regs:     []deps.Reg{{Phaser: 2, Phase: 0}}}
	case "b":
		b = deps.Blocked{Task: 2,
			WaitsFor: []deps.Resource{{Phaser: 2, Phase: 1}},
			Regs:     []deps.Reg{{Phaser: 1, Phase: 0}}}
		time.Sleep(100 * time.Millisecond) // let process a block first
	default:
		log.Fatalf("unknown role %q", role)
	}
	if err := c.Block(b); err != nil {
		log.Fatalf("process %s: block: %v", role, err)
	}
	fmt.Printf("process %s: task %d blocked, waiting for the verdict...\n", role, b.Task)

	select {
	case r := <-reports:
		fmt.Printf("process %s: deadlock reported across processes: tasks %v over events %v\n",
			role, r.Tasks, r.Resources)
	case <-time.After(10 * time.Second):
		log.Fatalf("process %s: no report within 10s", role)
	}
}
