module poseidon/bench

go 1.22

require poseidon v0.0.0

replace poseidon => ../
