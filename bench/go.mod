module ensembler/bench

go 1.24

require ensembler v0.0.0

replace ensembler => ../
