module hypodatalog/benchmark

go 1.22

require hypodatalog v0.0.0

replace hypodatalog => ../
