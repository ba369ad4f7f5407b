// The benchmark is a module of its own so that it builds from its own
// directory; it reaches the engine's packages through the replace below.
module whatifolap/benchmark

go 1.22

require whatifolap v0.0.0

replace whatifolap => ../
