module parapriori/bench

go 1.22

require parapriori v0.0.0

replace parapriori => ../
