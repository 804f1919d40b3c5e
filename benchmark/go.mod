module dixq/benchmark

go 1.22

require dixq v0.0.0

replace dixq => ../
