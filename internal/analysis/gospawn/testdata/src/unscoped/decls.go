package fixture

type server struct{}

func (*server) run()    {}
func (*server) warmup() {}

func use(any) {}
