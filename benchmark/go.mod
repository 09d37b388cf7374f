module bufferdb/benchmark

go 1.22

require bufferdb v0.0.0

replace bufferdb => ../
